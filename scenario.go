package protean

import (
	"context"
	"fmt"
	"io"
	"os"

	"protean/internal/cluster"
	"protean/internal/obs"
)

// Scenario is the declarative, JSON-serializable description of one
// complete run: a fleet of (possibly heterogeneous) workstations, an
// arrival process, an admission-control policy, a placement policy and
// the job list. It is the single source of truth the whole system
// executes from, and protean.Start is the one entry point that runs one
// (a Session is simply a fleet of one).
//
// Scenarios round-trip through JSON (MarshalJSON / LoadScenario), so a
// run can be described in a spec file, checked into a repo, replayed by
// cmd/proteansim -scenario, and swept by the experiment harness — the
// portable configuration surface the reconfigurable-platform frameworks
// literature asks for instead of imperative wiring.
type Scenario struct {
	// Seed derives every per-job session seed, the arrival jitter and
	// the placement randomness; a Scenario is a pure function of its
	// fields.
	Seed int64 `json:"seed,omitempty"`
	// Workers sizes the host-side job-execution pool; 0 means GOMAXPROCS,
	// 1 runs jobs serially. Results are byte-identical for every setting.
	Workers int `json:"workers,omitempty"`
	// Lanes selects how identical jobs execute. 0 (the default) lets
	// every set of identical jobs share one session and its Result,
	// whenever sharing provably cannot change results (it is skipped for
	// seed-sensitive sessions, e.g. the random replacement policy, and
	// for session extras); 1 runs one session per job. No other value is
	// valid. Like Workers, a host-side execution knob: the FleetResult
	// is byte-identical for either setting.
	Lanes int `json:"lanes,omitempty"`
	// Nodes describes the fleet, one spec per node class instance.
	Nodes []NodeSpec `json:"nodes"`
	// Arrivals selects the arrival process; the zero value is batch.
	Arrivals ArrivalSpec `json:"arrivals,omitzero"`
	// Admission bounds per-node queues; the zero value admits everything.
	Admission AdmissionSpec `json:"admission,omitzero"`
	// Placement names the dispatcher policy; the zero value is
	// round-robin.
	Placement PlacementSpec `json:"placement,omitzero"`
	// Jobs is the submitted work, in arrival order.
	Jobs []JobSpec `json:"jobs"`
	// TraceOut, when set, writes the fleet timeline as Chrome trace-event
	// JSON to this file path (open it in Perfetto): one track per node
	// with fetch and exec spans, plus a dispatcher track with defer spans
	// and shed instants. With several replayed policies
	// (WithRunPlacements) the first policy's timeline is written.
	// Timestamps are modeled cycles, emitted replay-side, so the file is
	// byte-identical at any Workers setting.
	TraceOut string `json:"trace_out,omitempty"`
	// Metrics attaches a deterministic metrics snapshot to each
	// FleetResult (see FleetResult.Metrics).
	Metrics bool `json:"metrics,omitempty"`
}

// NodeSpec describes one kind of workstation in the fleet.
type NodeSpec struct {
	// Count replicates this spec; 0 means 1.
	Count int `json:"count,omitempty"`
	// StoreSlots caps the node's bitstream store (LRU, in distinct
	// configurations); 0 means the fleet default (8).
	StoreSlots int `json:"store_slots,omitempty"`
	// ClockScale is the node's clock multiplier relative to the
	// reference workstation: a ClockScale-k node finishes the same
	// session in 1/k of the fleet-clock cycles. 0 means 1.
	ClockScale int `json:"clock_scale,omitempty"`
	// Session configures the node's kernel and machine — the same knobs
	// as the Session options, declaratively.
	Session SessionSpec `json:"session,omitzero"`
}

// SessionSpec is the serializable form of the Session options: every
// modeled knob of New, one field per option. The zero value is the
// paper's default machine. It is a comparable value — node specs with
// equal sessions share one execution-profile class.
type SessionSpec struct {
	Scale        int       `json:"scale,omitempty"`          // WithScale
	Quantum      uint32    `json:"quantum,omitempty"`        // WithQuantum (0 = scaled 10 ms)
	Policy       string    `json:"policy,omitempty"`         // WithPolicy, by ParsePolicy name
	SoftDispatch bool      `json:"soft_dispatch,omitempty"`  // WithSoftDispatch
	Sharing      bool      `json:"sharing,omitempty"`        // WithSharing
	FullReadback bool      `json:"full_readback,omitempty"`  // WithFullReadback
	PageInCycles uint32    `json:"page_in_cycles,omitempty"` // WithPageInCycles
	AtomicCDP    bool      `json:"atomic_cdp,omitempty"`     // WithAtomicCDP
	MaxFaults    uint64    `json:"max_faults,omitempty"`     // WithMaxFaults
	TLB1Entries  int       `json:"tlb1_entries,omitempty"`   // WithTLB1Entries
	PFUs         int       `json:"pfus,omitempty"`           // WithPFUs (0 = 4)
	Budget       uint64    `json:"budget,omitempty"`         // WithBudget
	LintWarnings bool      `json:"lint_warnings,omitempty"`  // WithLintWarnings
	Costs        CostModel `json:"costs,omitzero"`           // WithCostModel (zero = scaled defaults)
}

// Arrival process names for ArrivalSpec.Process.
const (
	ArrivalBatch   = "batch"
	ArrivalPoisson = "poisson"
	ArrivalTrace   = "trace"
)

// ArrivalSpec selects the fleet's arrival process.
type ArrivalSpec struct {
	// Process is one of "batch" (closed loop, everything at cycle 0 —
	// the default), "poisson" (open loop, exponential gaps from the
	// integer-arithmetic rng.Exp sampler) or "trace" (explicit arrival
	// cycles).
	Process string `json:"process,omitempty"`
	// MeanGap is the mean inter-arrival gap in cycles for "poisson".
	MeanGap uint64 `json:"mean_gap,omitempty"`
	// Times are the explicit arrival cycles for "trace", nondecreasing,
	// one per job (a longer trace covers a shorter job list).
	Times []uint64 `json:"times,omitempty"`
}

// Admission policy names for AdmissionSpec.Policy.
const (
	AdmissionShed  = "shed"
	AdmissionDefer = "defer"
)

// AdmissionSpec bounds per-node job queues — the open-loop fleet's
// overload valve. The zero value admits every arrival immediately.
type AdmissionSpec struct {
	// Bound is the maximum number of jobs a node may hold, queued plus
	// running; 0 means unbounded.
	Bound int `json:"bound,omitempty"`
	// Policy is "shed" (an over-bound job is rejected and never runs;
	// the default when Bound > 0) or "defer" (the job waits for the
	// first free slot anywhere in the fleet and placement re-runs).
	Policy string `json:"policy,omitempty"`
}

// PlacementSpec names the dispatcher policy.
type PlacementSpec struct {
	// Policy is a ParsePlacement name: "round-robin" (the default),
	// "random", "least-loaded", "config-affinity" or
	// "weighted-affinity".
	Policy string `json:"policy,omitempty"`
	// Weight tunes "weighted-affinity": the score is
	// weight·affinityHits − backlogCycles, so weight is what one warm
	// configuration is worth in cycles of queueing. 0 means
	// DefaultAffinityWeight.
	Weight uint64 `json:"weight,omitempty"`
}

// DefaultAffinityWeight is the weighted-affinity weight used when
// PlacementSpec.Weight is 0.
const DefaultAffinityWeight = cluster.DefaultAffinityWeight

// MaxScenarioNodes and MaxScenarioJobs cap the Count-expanded fleet and
// job list, so a typo'd (or hostile) spec fails validation instead of
// exhausting memory while "just validating". Both are far beyond any
// simulation a single host could usefully run.
const (
	MaxScenarioNodes = 1 << 12
	MaxScenarioJobs  = 1 << 16
)

// MaxPFUs and MaxTLB1Entries cap a session's PFU count (WithPFUs,
// SessionSpec.PFUs) and dispatch-TLB size (WithTLB1Entries,
// SessionSpec.TLB1Entries). A session allocates its PFUs and TLB
// entries up front, so without a cap one spec field could ask every job
// session for gigabytes. Both caps are far above the paper's machine
// (4 PFUs, 16 TLB1 entries) and every value the experiments sweep.
const (
	MaxPFUs        = 1 << 8
	MaxTLB1Entries = 1 << 10
)

// MaxScenarioItems caps a job's work-unit count. Resolving a job builds
// its workload template, and the built-in builders compute their
// expected checksum in O(items) — so without a cap a hostile spec could
// stall Validate (or LoadScenario) arbitrarily long before any
// simulation runs. The bound is ~16x the largest paper-scale default
// (alpha's 4.3M work units at scale 1).
const MaxScenarioItems = 1 << 26

// JobSpec is one submitted job: instances of a registered workload that
// run together in a single session on whichever node the dispatcher
// picks.
type JobSpec struct {
	// Workload is the registry name (see Workloads).
	Workload string `json:"workload"`
	// Instances run concurrently within the job's session; 0 means 1.
	Instances int `json:"instances,omitempty"`
	// Items is the work-unit count per instance; 0 means the workload's
	// default at the reference (first) node spec's scale.
	Items int `json:"items,omitempty"`
	// Count submits this job spec repeatedly; 0 means 1.
	Count int `json:"count,omitempty"`
}

// Validate checks the scenario without running it: it resolves every
// spec field exactly as Start would and reports the first problem (zero
// nodes, unknown placement policy or workload, negative queue bound,
// malformed arrival process, unbuildable session options, ...).
func (sc Scenario) Validate() error {
	_, err := sc.resolve(startConfig{})
	return err
}

// options expands a SessionSpec into the equivalent Session options — the
// exact constructors an imperative caller would have used, so a
// spec-built session is bit-identical to an option-built one.
func (ss SessionSpec) options() ([]Option, error) {
	opts := []Option{
		WithScale(ss.Scale),
		WithQuantum(ss.Quantum),
		WithSoftDispatch(ss.SoftDispatch),
		WithSharing(ss.Sharing),
		WithFullReadback(ss.FullReadback),
		WithPageInCycles(ss.PageInCycles),
		WithAtomicCDP(ss.AtomicCDP),
		WithMaxFaults(ss.MaxFaults),
		WithTLB1Entries(ss.TLB1Entries),
		WithBudget(ss.Budget),
	}
	if ss.Policy != "" {
		pol, err := ParsePolicy(ss.Policy)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithPolicy(pol))
	}
	if ss.PFUs != 0 {
		opts = append(opts, WithPFUs(ss.PFUs))
	}
	if ss.LintWarnings {
		opts = append(opts, WithLintWarnings())
	}
	if ss.Costs != (CostModel{}) {
		opts = append(opts, WithCostModel(ss.Costs))
	}
	// Surface bad values (negative TLB sizes, ...) at spec time.
	var probe config
	for _, opt := range opts {
		if err := opt(&probe); err != nil {
			return nil, err
		}
	}
	return opts, nil
}

// resolve turns an ArrivalSpec into the cluster's arrival process.
func (as ArrivalSpec) resolve() (cluster.Arrivals, error) {
	switch as.Process {
	case "", ArrivalBatch:
		if as.MeanGap != 0 {
			return cluster.Arrivals{}, fmt.Errorf("protean: batch arrivals take no mean gap (got %d); use process %q", as.MeanGap, ArrivalPoisson)
		}
		if len(as.Times) != 0 {
			return cluster.Arrivals{}, fmt.Errorf("protean: batch arrivals take no times; use process %q", ArrivalTrace)
		}
		return cluster.Arrivals{Kind: cluster.ArriveBatch}, nil
	case ArrivalPoisson:
		if as.MeanGap == 0 {
			return cluster.Arrivals{}, fmt.Errorf("protean: poisson arrivals need a positive mean gap")
		}
		if as.MeanGap > cluster.MaxMeanGap {
			return cluster.Arrivals{}, fmt.Errorf("protean: mean gap %d exceeds the %d-cycle cap", as.MeanGap, cluster.MaxMeanGap)
		}
		if len(as.Times) != 0 {
			return cluster.Arrivals{}, fmt.Errorf("protean: poisson arrivals take no times")
		}
		return cluster.Arrivals{Kind: cluster.ArrivePoisson, MeanGap: as.MeanGap}, nil
	case ArrivalTrace:
		if as.MeanGap != 0 {
			return cluster.Arrivals{}, fmt.Errorf("protean: trace arrivals take no mean gap")
		}
		for i, t := range as.Times {
			if i > 0 && t < as.Times[i-1] {
				return cluster.Arrivals{}, fmt.Errorf("protean: arrival trace decreases at index %d", i)
			}
			if t > cluster.MaxTraceArrival {
				return cluster.Arrivals{}, fmt.Errorf("protean: trace arrival %d at index %d exceeds the %d-cycle cap", t, i, cluster.MaxTraceArrival)
			}
		}
		return cluster.Arrivals{Kind: cluster.ArriveTrace, Times: as.Times}, nil
	case "uniform":
		return cluster.Arrivals{}, fmt.Errorf("protean: the uniform-jitter arrival process is retired; use process %q with the same mean gap", ArrivalPoisson)
	}
	return cluster.Arrivals{}, fmt.Errorf("protean: unknown arrival process %q (want %s, %s or %s)",
		as.Process, ArrivalBatch, ArrivalPoisson, ArrivalTrace)
}

// resolve turns an AdmissionSpec into the cluster's admission control.
func (as AdmissionSpec) resolve() (cluster.Admission, error) {
	if as.Bound < 0 {
		return cluster.Admission{}, fmt.Errorf("protean: admission bound must be >= 0, got %d", as.Bound)
	}
	switch as.Policy {
	case "":
		// Shed is the default over-bound policy; no bound, no policy.
		return cluster.Admission{Bound: as.Bound}, nil
	case AdmissionShed, AdmissionDefer:
		if as.Bound == 0 {
			return cluster.Admission{}, fmt.Errorf("protean: admission policy %q needs a positive bound", as.Policy)
		}
		return cluster.Admission{Bound: as.Bound, Defer: as.Policy == AdmissionDefer}, nil
	}
	return cluster.Admission{}, fmt.Errorf("protean: unknown admission policy %q (want %s or %s)",
		as.Policy, AdmissionShed, AdmissionDefer)
}

// resolve turns a PlacementSpec into a policy value.
func (ps PlacementSpec) resolve() (PlacementPolicy, error) {
	name := ps.Policy
	if name == "" {
		name = "round-robin"
	}
	pol, err := cluster.ParsePlacement(name)
	if err != nil {
		return nil, fmt.Errorf("protean: %w", err)
	}
	if pol.Name() == "weighted-affinity" {
		return cluster.WeightedAffinity(ps.Weight), nil
	}
	if ps.Weight != 0 {
		return nil, fmt.Errorf("protean: placement weight applies only to weighted-affinity, not %q", pol.Name())
	}
	return pol, nil
}

// jobKind is the identity of a resolved job: the session it runs. Jobs
// of one kind are identical simulations (the derived seed is the only
// per-job input, and sharing is vetoed for seed-sensitive sessions).
type jobKind struct {
	workload         string
	instances, items int
}

// resolvedScenario is a Scenario after every default, name and template
// has been resolved — the executable form.
type resolvedScenario struct {
	ccfg      cluster.Config
	classes   int
	classOpts [][]Option
	// jobs is the expanded job list, the one job table Execute, Replay
	// and the Chrome trace read. Each job's Batch tags its kind: kinds
	// lists the distinct kinds in first-appearance order, job.Batch is 1
	// + the kind's index, and first[k] is the index of kind k's first job.
	jobs     []cluster.Job
	kinds    []jobKind
	first    []int
	policies []PlacementPolicy
	sink     Sink
	extras   []Option
	// share lets identical jobs share one session: Scenario.Lanes is 0,
	// there are no session extras (a shared trace or disassembly would
	// observe one session where one-per-job observes many), and no class
	// runs the random replacement policy, whose sessions depend on the
	// derived seed.
	share bool
	// traceW / tracePath route the Chrome fleet timeline (an explicit
	// writer beats the spec's file path); metrics turns on FleetResult
	// metrics snapshots.
	traceW    io.Writer
	tracePath string
	metrics   bool
}

// StartOption adjusts how Start executes a Scenario, carrying the
// runtime-only concerns a serializable spec cannot: progress sinks,
// debugging session extras, and placement-policy values (including
// custom implementations) to replay under.
type StartOption func(*startConfig) error

type startConfig struct {
	sink     Sink
	extras   []Option
	policies []PlacementPolicy
	traceW   io.Writer
}

// WithRunProgress streams structured fleet events (one EventJobDone per
// executed job and class, one EventFleetDone per replayed policy) to
// sink; the sink must be safe for concurrent use.
func WithRunProgress(sink Sink) StartOption {
	return func(c *startConfig) error {
		c.sink = sink
		return nil
	}
}

// WithRunPlacements replays placement under the given policy values
// instead of the scenario's named Placement — the hook for paired policy
// comparisons (job sessions execute once, each policy replays over the
// same executions; Runner.WaitAll returns one FleetResult per policy)
// and for custom PlacementPolicy implementations that have no spec name.
func WithRunPlacements(policies ...PlacementPolicy) StartOption {
	return func(c *startConfig) error {
		for _, p := range policies {
			if p == nil {
				return fmt.Errorf("protean: nil placement policy")
			}
		}
		c.policies = append(c.policies, policies...)
		return nil
	}
}

// WithRunTrace writes the fleet timeline of the first replayed policy
// to w as Chrome trace-event JSON — the writer-valued twin of the
// Scenario.TraceOut file path (an explicit writer takes precedence when
// both are set). Emission is replay-side only, so the bytes are
// identical at any Workers setting.
func WithRunTrace(w io.Writer) StartOption {
	return func(c *startConfig) error {
		if w == nil {
			return fmt.Errorf("protean: trace output writer must be non-nil")
		}
		c.traceW = w
		return nil
	}
}

// WithRunSessionOptions applies extra options to every job session —
// meant for the non-modeled debugging aids (WithTrace, WithProgress,
// WithDisasm) that a Scenario deliberately cannot express. Passing
// modeled options here forfeits the spec's reproducibility contract.
func WithRunSessionOptions(opts ...Option) StartOption {
	return func(c *startConfig) error {
		c.extras = append(c.extras, opts...)
		return nil
	}
}

// resolve validates the scenario and expands it into executable form.
func (sc Scenario) resolve(scfg startConfig) (*resolvedScenario, error) {
	if len(sc.Nodes) == 0 {
		return nil, fmt.Errorf("protean: scenario needs at least one node spec")
	}
	if sc.Lanes != 0 && sc.Lanes != 1 {
		return nil, fmt.Errorf("protean: lanes must be 0 (share identical jobs) or 1 (one session per job), got %d", sc.Lanes)
	}
	rs := &resolvedScenario{
		sink: scfg.sink, extras: scfg.extras,
		share:  sc.Lanes == 0 && len(scfg.extras) == 0,
		traceW: scfg.traceW, metrics: sc.Metrics,
	}
	if rs.traceW == nil {
		rs.tracePath = sc.TraceOut
	}
	nodeCfgs := make([]cluster.NodeConfig, 0, expandedLen(sc.Nodes, func(ns NodeSpec) int { return ns.Count }, MaxScenarioNodes))
	classIdx := map[SessionSpec]int{}
	for ni, ns := range sc.Nodes {
		if ns.Count < 0 {
			return nil, fmt.Errorf("protean: node spec %d has negative count %d", ni, ns.Count)
		}
		if ns.StoreSlots < 0 {
			return nil, fmt.Errorf("protean: node spec %d has negative store slots %d", ni, ns.StoreSlots)
		}
		if ns.ClockScale < 0 {
			return nil, fmt.Errorf("protean: node spec %d has negative clock scale %d", ni, ns.ClockScale)
		}
		class, ok := classIdx[ns.Session]
		if !ok {
			opts, err := ns.Session.options()
			if err != nil {
				return nil, fmt.Errorf("protean: node spec %d: %w", ni, err)
			}
			class = len(rs.classOpts)
			classIdx[ns.Session] = class
			rs.classOpts = append(rs.classOpts, opts)
			if ns.Session.Policy != "" {
				// Already validated by options() above.
				if pol, _ := ParsePolicy(ns.Session.Policy); pol == PolicyRandom {
					rs.share = false
				}
			}
		}
		count := ns.Count
		if count == 0 {
			count = 1
		}
		if len(nodeCfgs)+count > MaxScenarioNodes {
			return nil, fmt.Errorf("protean: scenario expands to more than %d nodes", MaxScenarioNodes)
		}
		fetch := int(Scale{Factor: ns.Session.Scale}.ConfigBytesPerCycle())
		for i := 0; i < count; i++ {
			nodeCfgs = append(nodeCfgs, cluster.NodeConfig{
				StoreSlots:         ns.StoreSlots,
				ClockScale:         ns.ClockScale,
				FetchBytesPerCycle: fetch,
				Class:              class,
			})
		}
	}
	rs.classes = len(rs.classOpts)

	arrivals, err := sc.Arrivals.resolve()
	if err != nil {
		return nil, err
	}
	admission, err := sc.Admission.resolve()
	if err != nil {
		return nil, err
	}
	rs.policies = scfg.policies
	if len(rs.policies) == 0 {
		pol, err := sc.Placement.resolve()
		if err != nil {
			return nil, err
		}
		rs.policies = []PlacementPolicy{pol}
	}

	// Jobs resolve their identity — items, built template, circuit keys —
	// against the reference (first) node spec, so a job is one job no
	// matter which node class it lands on. Each kind is tagged with a
	// batch id in first-appearance order, so the dispatcher may fold a
	// kind's jobs into one shared session and the tagging — like
	// everything in resolve — is deterministic.
	refSpec := sc.Nodes[0].Session
	refScale := Scale{Factor: refSpec.Scale}
	rs.jobs = make([]cluster.Job, 0, expandedLen(sc.Jobs, func(js JobSpec) int { return js.Count }, MaxScenarioJobs))
	rs.kinds = make([]jobKind, 0, len(sc.Jobs))
	rs.first = make([]int, 0, len(sc.Jobs))
	kindIdx := make(map[jobKind]int, len(sc.Jobs))
	for ji, js := range sc.Jobs {
		if js.Count < 0 {
			return nil, fmt.Errorf("protean: job spec %d has negative count %d", ji, js.Count)
		}
		kind, job, err := resolveJob(js, refScale, refSpec.SoftDispatch)
		if err != nil {
			return nil, fmt.Errorf("protean: job spec %d: %w", ji, err)
		}
		count := js.Count
		if count == 0 {
			count = 1
		}
		if len(rs.jobs)+count > MaxScenarioJobs {
			return nil, fmt.Errorf("protean: scenario expands to more than %d jobs", MaxScenarioJobs)
		}
		k, ok := kindIdx[kind]
		if !ok {
			k = len(rs.kinds)
			kindIdx[kind] = k
			rs.kinds = append(rs.kinds, kind)
			rs.first = append(rs.first, len(rs.jobs))
		}
		job.Batch = k + 1
		for i := 0; i < count; i++ {
			rs.jobs = append(rs.jobs, job)
		}
	}
	if len(rs.jobs) == 0 {
		return nil, fmt.Errorf("protean: scenario has no jobs")
	}
	if arrivals.Kind == cluster.ArriveTrace && len(arrivals.Times) < len(rs.jobs) {
		return nil, fmt.Errorf("protean: arrival trace has %d times for %d jobs", len(arrivals.Times), len(rs.jobs))
	}

	rs.ccfg = cluster.Config{
		NodeConfigs: nodeCfgs,
		Classes:     rs.classes,
		Seed:        sc.Seed,
		Workers:     sc.Workers,
		Arrivals:    arrivals,
		Admission:   admission,
	}
	return rs, nil
}

// expandedLen is the length of the Count-expanded table of specs, a
// Count of 0 meaning 1. It only sizes the table: past limit it returns
// 0, so a spec that fails validation allocates nothing up front, and
// the loop that fills the table reports the bad count.
func expandedLen[S any](specs []S, count func(S) int, limit int) int {
	n := 0
	for _, s := range specs {
		if n += min(max(count(s), 1), limit+1); n > limit {
			return 0
		}
	}
	return n
}

// resolveJob expands one JobSpec into its kind and its untagged cluster
// job against the reference scale and soft-dispatch mode.
func resolveJob(js JobSpec, refScale Scale, soft bool) (jobKind, cluster.Job, error) {
	w, ok := lookupWorkload(js.Workload)
	if !ok {
		return jobKind{}, cluster.Job{}, fmt.Errorf("unknown workload %q (registered: %v)", js.Workload, Workloads())
	}
	if js.Instances < 0 {
		return jobKind{}, cluster.Job{}, fmt.Errorf("negative instance count %d", js.Instances)
	}
	instances := js.Instances
	if instances == 0 {
		instances = 1
	}
	if js.Items < 0 {
		return jobKind{}, cluster.Job{}, fmt.Errorf("negative items %d", js.Items)
	}
	items := js.Items
	if items > MaxScenarioItems {
		return jobKind{}, cluster.Job{}, fmt.Errorf("items %d exceeds the %d cap", items, MaxScenarioItems)
	}
	if items == 0 {
		items = refScale.Items(js.Workload)
		if items <= 0 {
			return jobKind{}, cluster.Job{}, fmt.Errorf("workload %q declares no default work-unit count; set items", js.Workload)
		}
	}
	prog, err := buildTemplate(w, items, soft)
	if err != nil {
		return jobKind{}, cluster.Job{}, fmt.Errorf("build %q: %w", js.Workload, err)
	}
	job := cluster.Job{
		Label:    fmt.Sprintf("%s x%d", prog.Name, instances),
		Circuits: make([]cluster.Circuit, len(prog.Images)),
	}
	for i, img := range prog.Images {
		job.Circuits[i] = cluster.Circuit{Key: cluster.Key(img.Key()), Bytes: img.StaticBytes}
	}
	return jobKind{workload: js.Workload, instances: instances, items: items}, job, nil
}

// Runner is a started scenario run: Start hands one back immediately,
// the jobs execute in the background on the worker pool, and Wait
// delivers the FleetResult.
type Runner struct {
	done chan struct{}
	frs  []*FleetResult
	err  error
}

// Start executes a Scenario: it validates and resolves the spec, begins
// executing the jobs on the worker pool, and returns a Runner whose Wait
// delivers the FleetResult. Resolution errors (the Validate class of
// problems) surface here, before any simulation runs.
//
// This is the system's one fleet entry point; a Session is the
// degenerate fleet of one node.
func Start(ctx context.Context, sc Scenario, opts ...StartOption) (*Runner, error) {
	var scfg startConfig
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&scfg); err != nil {
			return nil, err
		}
	}
	rs, err := sc.resolve(scfg)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := &Runner{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.frs, r.err = rs.run(ctx)
	}()
	return r, nil
}

// RunScenario is Start + Wait: execute the scenario and block for its
// FleetResult.
func RunScenario(ctx context.Context, sc Scenario, opts ...StartOption) (*FleetResult, error) {
	r, err := Start(ctx, sc, opts...)
	if err != nil {
		return nil, err
	}
	return r.Wait()
}

// Wait blocks until the run finishes and returns its FleetResult — the
// first one, when WithRunPlacements replayed several policies.
func (r *Runner) Wait() (*FleetResult, error) {
	frs, err := r.WaitAll()
	if err != nil {
		return nil, err
	}
	return frs[0], nil
}

// WaitAll blocks until the run finishes and returns one FleetResult per
// replayed placement policy, in WithRunPlacements order (a single
// result without it).
func (r *Runner) WaitAll() ([]*FleetResult, error) {
	<-r.done
	if r.err != nil {
		return nil, r.err
	}
	return r.frs, nil
}

// run executes the resolved scenario: phase 1 executes every job once
// per node class on the worker pool, phase 2 replays admission and
// placement per policy. Job sessions are constructed through the very
// same New + Spawn + Run path an imperative caller uses.
func (rs *resolvedScenario) run(ctx context.Context) ([]*FleetResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(rs.jobs)
	all := make([]*Result, rs.classes*n)
	results := make([][]*Result, rs.classes)
	for class := range results {
		results[class] = all[class*n : (class+1)*n]
	}
	runner := func(i, class int, seed int64) (cluster.Exec, error) {
		k := rs.kinds[rs.jobs[i].Batch-1]
		opts := make([]Option, 0, len(rs.classOpts[class])+len(rs.extras)+1)
		opts = append(opts, rs.classOpts[class]...)
		opts = append(opts, rs.extras...)
		opts = append(opts, WithSeed(seed))
		s, err := New(opts...)
		if err != nil {
			return cluster.Exec{}, err
		}
		if _, err := s.Spawn(k.workload, k.instances, k.items); err != nil {
			return cluster.Exec{}, err
		}
		res, err := s.Run(ctx)
		if err != nil {
			return cluster.Exec{}, err
		}
		results[class][i] = res
		return cluster.Exec{Cycles: res.Cycles}, nil
	}

	// Execute sees the jobs with Batch cleared unless sharing is on;
	// stand(i) is the job whose session stands for job i — the first job
	// of its kind, or i itself. Replay and the Chrome trace always get
	// the tagged jobs.
	execJobs := rs.jobs
	if !rs.share {
		execJobs = make([]cluster.Job, n)
		for i, j := range rs.jobs {
			j.Batch = 0
			execJobs[i] = j
		}
	}
	stand := func(i int) int {
		if rs.share {
			return rs.first[rs.jobs[i].Batch-1]
		}
		return i
	}
	ccfg := rs.ccfg
	if rs.sink != nil {
		sink := rs.sink
		ccfg.OnExec = func(i, class int, e cluster.Exec) {
			// The runner stored the standing session's result before
			// OnExec fires (same goroutine), so the event carries the
			// verification verdict.
			res := results[class][stand(i)]
			ev := Event{
				Kind:  EventJobDone,
				Label: rs.jobs[i].Label,
				Cycle: e.Cycles,
				OK:    res != nil && res.Err() == nil,
			}
			if rs.classes > 1 {
				ev.Class = int32(class) + 1
			}
			sink.Event(ev)
		}
	}
	execs, err := cluster.Execute(ccfg, execJobs, runner)
	if err != nil {
		return nil, err
	}
	if rs.share {
		for _, rc := range results {
			for i := range rc {
				rc[i] = rc[stand(i)]
			}
		}
	}
	frs := make([]*FleetResult, len(rs.policies))
	for pi, pol := range rs.policies {
		fr, err := rs.replay(pol, execs, results)
		if err != nil {
			return nil, err
		}
		if rs.metrics {
			fr.Metrics = fleetMetrics(fr)
		}
		if pi == 0 {
			if err := rs.emitChromeTrace(fr); err != nil {
				return nil, err
			}
		}
		if rs.sink != nil {
			rs.sink.Event(Event{
				Kind:  EventFleetDone,
				Procs: len(rs.jobs),
				Cycle: fr.Makespan,
				OK:    fr.Err() == nil,
				Message: fmt.Sprintf("fleet done: %d jobs on %d nodes (%s), makespan %d, config loads %d (%d cold, %d warm), shed %d, deferred %d",
					len(rs.jobs), len(rs.ccfg.NodeConfigs), fr.Policy, fr.Makespan, fr.ConfigLoads(), fr.ColdLoads, fr.WarmHits, fr.Shed, fr.Deferred),
			})
		}
		frs[pi] = fr
	}
	return frs, nil
}

// replay is phase 2 under one policy: Replay writes every job's
// placement straight into the FleetResult's job rows and returns its
// node rows and totals, then assemble attaches what the dispatcher does
// not know.
func (rs *resolvedScenario) replay(pol PlacementPolicy, execs [][]cluster.Exec, results [][]*Result) (*FleetResult, error) {
	ccfg := rs.ccfg
	ccfg.Policy = pol
	fr := &FleetResult{Policy: pol.Name(), Jobs: make([]JobResult, len(rs.jobs))}
	var err error
	fr.Nodes, fr.Totals, err = cluster.Replay(ccfg, rs.jobs, execs,
		func(i int) *cluster.Placement { return &fr.Jobs[i].Placement })
	if err != nil {
		return nil, err
	}
	rs.assemble(fr, results)
	return fr, nil
}

// emitChromeTrace writes the fleet timeline to the configured trace
// destination (WithRunTrace writer or Scenario.TraceOut path); a no-op
// when neither is set. Runs on the serial replay goroutine.
func (rs *resolvedScenario) emitChromeTrace(fr *FleetResult) error {
	if rs.traceW == nil && rs.tracePath == "" {
		return nil
	}
	t := obs.NewTracer()
	emitFleetChrome(t, fr, rs.jobs)
	if rs.traceW != nil {
		if err := t.WriteChromeTrace(rs.traceW); err != nil {
			return fmt.Errorf("protean: write trace: %w", err)
		}
		return nil
	}
	f, err := os.Create(rs.tracePath)
	if err != nil {
		return fmt.Errorf("protean: trace out: %w", err)
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("protean: write trace %s: %w", rs.tracePath, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("protean: trace out: %w", err)
	}
	return nil
}

// assemble completes the job rows Replay wrote — submission index,
// label, workload and, for admitted jobs, the session result of the
// node's class — and folds the admitted sessions' statistics into the
// fleet aggregates. Shed jobs carry no session result.
func (rs *resolvedScenario) assemble(fr *FleetResult, results [][]*Result) {
	for i := range fr.Jobs {
		jr, job := &fr.Jobs[i], &rs.jobs[i]
		jr.ID, jr.Label, jr.Workload = i, job.Label, rs.kinds[job.Batch-1].workload
		if jr.Shed {
			continue
		}
		res := results[fr.Nodes[jr.Node].Class][i]
		jr.Run = res
		if res != nil {
			addCIS(&fr.CIS, res.CIS)
			addKernel(&fr.Kernel, res.Kernel)
			addRFU(&fr.RFU, res.RFU)
		}
	}
}
