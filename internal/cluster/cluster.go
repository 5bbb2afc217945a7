// Package cluster simulates a fleet of ProteanARM workstations behind a
// job dispatcher — the paper's single-machine management problem lifted
// one layer up. The paper's central cost, configuration loads under
// thrashing (§5.1, Figure 2), becomes a *placement* problem at fleet
// scale: a node whose bitstream store already holds a job's circuit
// configurations can start it without cold fetches, so a
// configuration-affinity dispatcher saves exactly the traffic the paper's
// CIS fights to avoid within one machine.
//
// The fleet simulation is deterministic by construction, in two phases:
//
//  1. Execution. Every job's session depends only on the *class* of node
//     it could land on (nodes within a class are identical workstations;
//     the modeled bitstream fetch and the node clock are charged
//     analytically in phase 2), so jobs execute once per node class,
//     concurrently on the shared internal/conc worker pool, with per-job
//     seeds derived from the cluster seed (internal/rng). Parallelism
//     changes only wall-clock time, never results.
//  2. Placement replay. Arrivals are expanded from the arrival process,
//     and the dispatcher replays them serially in arrival order: the
//     admission controller checks the chosen node's queue bound (shedding
//     or deferring over-bound work), the placement policy picks a node,
//     the node's LRU bitstream store is consulted for each of the job's
//     configuration keys (cold misses charge the modeled fetch), and the
//     node's timeline advances at the node's clock. All mutable fleet
//     state lives here, on one goroutine.
//
// The result is byte-identical for every Workers setting — the property
// TestClusterPlacementDeterminism enforces through the facade.
package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"protean/internal/conc"
	"protean/internal/obs"
	"protean/internal/rng"
)

// Key identifies one circuit configuration fleet-wide: core.ConfigKey,
// the static bitstream hash. The dispatcher treats it opaquely —
// two jobs carrying equal keys load byte-identical configurations, which
// is what a node's bitstream store can reuse.
type Key [32]byte

// Circuit is one configuration a job will load: its affinity key plus the
// static-bitstream size that must be fetched into a node's store when the
// placement is cold.
type Circuit struct {
	Key   Key
	Bytes int
}

// Job is one unit of fleet work: an opaque payload the Runner knows how
// to execute (by index), annotated with the circuits it loads.
type Job struct {
	Label    string
	Circuits []Circuit
	// Batch groups jobs whose sessions are identical simulations: same
	// configurations, same workload program, same length, with the
	// derived seed provably not influencing execution. Jobs sharing a
	// nonzero Batch id form a share group that Execute simulates once
	// per class, through its first member; 0 means the job runs alone.
	// Callers own the guarantee — the dispatcher only groups what they
	// marked.
	Batch int
}

// Exec is the node-independent execution profile of one job on one node
// class: the machine cycles its session simulated at that class's
// reference clock.
type Exec struct {
	Cycles uint64
}

// Runner executes job i under node class c with the given derived seed
// and returns its execution profile. Runners are called concurrently from
// the worker pool, once per (job, class) pair; the seed depends only on
// the job, so a one-class fleet reproduces the homogeneous profile
// exactly.
type Runner func(i, class int, seed int64) (Exec, error)

// Seed-derivation streams, so job seeds, arrival jitter and placement
// randomness never correlate.
const (
	streamJob = iota
	streamArrivals
	streamPlacement
)

// MaxMeanGap caps the open-loop mean inter-arrival gap: 2^48 cycles is
// ~33 simulated days at 100 MHz, far beyond any sensible run, and keeps
// the exponential draws and the accumulating arrival clock safely inside
// uint64 for any realistic job count.
const MaxMeanGap = uint64(1) << 48

// MaxTraceArrival caps explicit trace arrival cycles (~1.4 simulated
// years at 100 MHz) — the same no-overflow invariant MaxMeanGap gives
// the generated processes: completion arithmetic (arrival + fetch +
// service, service bounded by the session budget) must never wrap the
// fleet clock.
const MaxTraceArrival = uint64(1) << 52

// ArrivalKind selects the fleet's arrival process.
type ArrivalKind int

const (
	// ArriveBatch is the closed loop: every job is present at cycle 0.
	ArriveBatch ArrivalKind = iota
	// ArrivePoisson is the true open-loop Poisson process: exponential
	// inter-arrival gaps with mean MeanGap, drawn by the integer
	// von Neumann sampler (rng.Exp), so queueing behaviour is memoryless
	// without losing bit-reproducibility.
	ArrivePoisson
	// ArriveTrace replays explicit arrival cycles: job i arrives at
	// Times[i]. Times must be nondecreasing and cover every job.
	ArriveTrace
)

// Arrivals selects and parameterises the fleet's arrival process. The
// zero value is batch mode.
type Arrivals struct {
	Kind ArrivalKind
	// MeanGap is the mean inter-arrival gap in cycles for the Poisson
	// open loop. Gaps above MaxMeanGap are clamped to it.
	MeanGap uint64
	// Times are the explicit arrival cycles for ArriveTrace.
	Times []uint64
}

// times expands the arrival process into one arrival cycle per job.
func (a Arrivals) times(n int, seed int64) ([]uint64, error) {
	out := make([]uint64, n)
	gap := a.MeanGap
	if gap > MaxMeanGap {
		gap = MaxMeanGap
	}
	switch a.Kind {
	case ArriveBatch:
		// all zero
	case ArrivePoisson:
		if gap == 0 {
			break
		}
		s := rng.New(rng.Derive(seed, streamArrivals))
		var t uint64
		for i := range out {
			t += s.Exp(gap)
			out[i] = t
		}
	case ArriveTrace:
		if len(a.Times) < n {
			return nil, fmt.Errorf("cluster: arrival trace has %d times for %d jobs", len(a.Times), n)
		}
		var prev uint64
		for i := range out {
			if a.Times[i] < prev {
				return nil, fmt.Errorf("cluster: arrival trace decreases at job %d (%d after %d)", i, a.Times[i], prev)
			}
			if a.Times[i] > MaxTraceArrival {
				return nil, fmt.Errorf("cluster: trace arrival %d at job %d exceeds the %d-cycle cap", a.Times[i], i, MaxTraceArrival)
			}
			out[i] = a.Times[i]
			prev = a.Times[i]
		}
	default:
		return nil, fmt.Errorf("cluster: unknown arrival kind %d", a.Kind)
	}
	return out, nil
}

// DefaultStoreSlots is the default capacity, in distinct configurations,
// of a node's bitstream store.
const DefaultStoreSlots = 8

// NodeConfig describes one node of a fleet. The zero value is a
// reference workstation with the default store and fetch bandwidth.
type NodeConfig struct {
	// StoreSlots caps this node's bitstream store (LRU, in distinct
	// configurations); <= 0 means DefaultStoreSlots.
	StoreSlots int
	// ClockScale is the node's clock multiplier relative to the reference
	// clock its class's executions were profiled at: a node with
	// ClockScale k completes ceil(cycles/k) fleet-clock cycles of service
	// per profiled cycle. <= 0 means 1.
	ClockScale int
	// FetchBytesPerCycle is the bandwidth at which a cold bitstream is
	// fetched into the node's store; <= 0 means 1 byte/cycle (the
	// configuration-port bandwidth at scale 1).
	FetchBytesPerCycle int
	// Class indexes this node's execution-profile class (see Runner); it
	// must be < Config.Classes.
	Class int
}

// Admission bounds each node's job queue — the open-loop dispatcher's
// overload valve. The zero value admits everything immediately.
type Admission struct {
	// Bound is the maximum number of jobs a node may hold (queued +
	// running); 0 means unbounded.
	Bound int
	// Defer selects the over-bound policy: false sheds the job (it is
	// rejected and never runs anywhere), true defers it — the job waits
	// until a slot frees somewhere in the fleet and placement re-runs at
	// that instant.
	Defer bool
}

// Config parameterises a fleet run.
type Config struct {
	// NodeConfigs describes the fleet, one entry per node.
	NodeConfigs []NodeConfig
	// Classes counts the execution-profile classes the Runner understands;
	// <= 0 means 1. Every NodeConfig.Class must be below it.
	Classes int
	// Seed derives every per-job session seed, the arrival jitter and the
	// placement randomness (splitmix, internal/rng).
	Seed int64
	// Workers sizes the job-execution pool; 0 means GOMAXPROCS, 1 runs
	// jobs serially. Fleet output is byte-identical for every setting.
	Workers int
	// Policy places jobs on nodes; nil means RoundRobin().
	Policy PlacementPolicy
	// Arrivals is the arrival process; the zero value is batch mode.
	Arrivals Arrivals
	// Admission bounds per-node queues; the zero value admits everything.
	Admission Admission
	// OnExec, if non-nil, observes each finished job execution. It is
	// called from the worker goroutines in completion order and must be
	// safe for concurrent use.
	OnExec func(i, class int, e Exec)
}

// classes resolves the execution-class count.
func (cfg Config) classes() int {
	if cfg.Classes <= 0 {
		return 1
	}
	return cfg.Classes
}

// Placement is one job's fleet record: where the dispatcher placed it,
// its fleet timeline and its node bitstream store traffic. Replay writes
// it straight into the caller's job row.
type Placement struct {
	// Node is where the dispatcher placed the job, -1 when admission
	// control shed it.
	Node int
	// Arrival, Start and Completion are fleet-clock cycles: Start waits
	// for the node to drain its queue, Completion adds the cold fetches
	// and the job's service time at the node's clock. Start and
	// Completion are 0 for shed jobs.
	Arrival, Start, Completion uint64
	// ColdLoads counts configurations fetched into the node's store for
	// this job; WarmHits counts configurations already resident — the
	// affinity dispatcher's currency.
	ColdLoads, WarmHits uint64
	// FetchCycles is the modeled cost of the cold fetches.
	FetchCycles uint64
	// Latency is the job's sojourn time, Completion − Arrival: queueing
	// (including any admission deferral) plus fetches plus service. 0
	// for shed jobs.
	Latency uint64
	// Shed reports that admission control rejected the job; Deferred
	// that it waited DeferCycles before placement re-ran.
	Shed        bool
	Deferred    bool
	DeferCycles uint64
}

// NodeResult aggregates one node's fleet activity.
type NodeResult struct {
	Node int
	// Class is the node's execution-profile class (nodes with identical
	// session specs share one class); ClockScale is its clock multiplier
	// relative to the reference workstation.
	Class      int
	ClockScale int
	// Jobs is how many jobs the dispatcher placed here.
	Jobs int
	// Busy is the node's total occupied time: job service plus bitstream
	// fetches.
	Busy uint64
	// ColdLoads counts configurations fetched into this node's bitstream
	// store; WarmHits counts placements that found them already resident.
	ColdLoads, WarmHits uint64
	// FetchCycles is the modeled cost of the cold fetches.
	FetchCycles uint64
	// Completion is the cycle the node finally went idle, 0 if unused.
	Completion uint64
}

// LatencyStats summarizes the fleet's sojourn-time distribution over
// admitted jobs: integer mean and nearest-rank percentiles, exactly
// reproducible run to run.
type LatencyStats struct {
	// Jobs is the sample size (admitted jobs).
	Jobs int
	// Mean, P50, P95, P99 and Max are cycles of sojourn time.
	Mean, P50, P95, P99, Max uint64
}

// Totals are a fleet run's aggregates over its job records.
type Totals struct {
	// Makespan is the cycle at which the last admitted job completed.
	Makespan uint64
	// Busy is total node-busy time; Makespan × nodes − Busy is idle time.
	Busy uint64
	// ColdLoads and WarmHits count fleet-level configuration placements:
	// cold ones fetched a bitstream into a node store (costing
	// FetchCycles), warm ones found it resident — the traffic placement
	// locality saves.
	ColdLoads, WarmHits uint64
	FetchCycles         uint64
	// Shed and Deferred count admission-control outcomes; DeferCycles
	// sums the deferral waits.
	Shed, Deferred int
	DeferCycles    uint64
	// Latency is the sojourn-time distribution over admitted jobs — the
	// tail the admission bound trades against shed work.
	Latency LatencyStats
}

// latencyStats summarizes a latency sample: integer mean and
// nearest-rank percentiles over the sorted sample, so the statistics are
// exactly reproducible. It sorts the sample, which the caller hands
// over.
func latencyStats(sorted []uint64) LatencyStats {
	if len(sorted) == 0 {
		return LatencyStats{}
	}
	slices.Sort(sorted)
	var sum uint64
	for _, v := range sorted {
		sum += v
	}
	rank := func(pct int) uint64 {
		idx := (pct*len(sorted) + 99) / 100
		if idx < 1 {
			idx = 1
		}
		return sorted[idx-1]
	}
	return LatencyStats{
		Jobs: len(sorted),
		Mean: sum / uint64(len(sorted)),
		P50:  rank(50),
		P95:  rank(95),
		P99:  rank(99),
		Max:  sorted[len(sorted)-1],
	}
}

// store is a node's bitstream store: an LRU set of configuration keys.
type store struct {
	slots int
	keys  []Key // least recently used first
}

// touch looks key up, refreshing recency. It reports a hit; on a miss the
// key is inserted, evicting the least recently used key if the store is
// full.
func (st *store) touch(k Key) bool {
	for i, have := range st.keys {
		if have == k {
			copy(st.keys[i:], st.keys[i+1:])
			st.keys[len(st.keys)-1] = k
			return true
		}
	}
	if len(st.keys) >= st.slots {
		copy(st.keys, st.keys[1:])
		st.keys = st.keys[:len(st.keys)-1]
	}
	st.keys = append(st.keys, k)
	return false
}

// holds reports whether key is resident without refreshing recency.
func (st *store) holds(k Key) bool {
	for _, have := range st.keys {
		if have == k {
			return true
		}
	}
	return false
}

// nodeState is one node's mutable dispatcher state during replay; the
// cycle it next goes idle lives in the Fleet's backlog tree.
type nodeState struct {
	cfg   NodeConfig // every default resolved
	store store
	// completions lists the completion cycle of every job placed here, in
	// placement order (nondecreasing: the node serves FIFO); admission
	// control derives queue depths from it, so it is kept only under a
	// queue bound.
	completions []uint64
}

// depth returns the node's queue depth (queued + running) at cycle now.
// A deferred placement can probe instants later than the next arrival, so
// depth must not assume monotonic queries: it binary-searches the sorted
// completion list instead of keeping a cursor.
func (ns *nodeState) depth(now uint64) int {
	done := sort.Search(len(ns.completions), func(i int) bool { return ns.completions[i] > now })
	return len(ns.completions) - done
}

// slotFreeAt returns the earliest cycle >= now at which the node's depth
// drops below bound. Call only with bound >= 1.
func (ns *nodeState) slotFreeAt(now uint64, bound int) uint64 {
	if ns.depth(now) < bound {
		return now
	}
	return ns.completions[len(ns.completions)-bound]
}

// Fleet is the dispatcher's read-only view of the nodes at one placement
// instant. PlacementPolicy implementations query it; all mutation happens
// in the replay loop, which also keeps two indexes so the built-in
// policies need not scan every node per job.
type Fleet struct {
	nodes  []nodeState
	now    uint64 // arrival cycle of the job being placed
	placed int
	rand   *rng.Stream
	// holders maps each key to the nodes whose store holds it, in
	// ascending order (kept by touch).
	holders map[Key][]int
	// free is a min tournament tree over the nodes' freeAt cycles: node
	// n's leaf is free[len(free)/2+n], padding leaves are ^0 and every
	// inner entry is the minimum of its two children (kept by setFreeAt).
	free []uint64
}

// newFleet builds the replay state of an idle, empty fleet: one node per
// cfg.NodeConfigs entry, with its defaults resolved. It rejects an empty
// fleet and a node whose class is not below classes.
func newFleet(cfg Config, classes int) (*Fleet, error) {
	n := len(cfg.NodeConfigs)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	size := 1
	for size < n {
		size *= 2
	}
	f := &Fleet{
		nodes:   make([]nodeState, n),
		rand:    rng.New(rng.Derive(cfg.Seed, streamPlacement)),
		holders: make(map[Key][]int),
		free:    make([]uint64, 2*size),
	}
	for i, nc := range cfg.NodeConfigs {
		if nc.Class < 0 || nc.Class >= classes {
			return nil, fmt.Errorf("cluster: node %d has class %d of %d", i, nc.Class, classes)
		}
		if nc.StoreSlots <= 0 {
			nc.StoreSlots = DefaultStoreSlots
		}
		if nc.ClockScale <= 0 {
			nc.ClockScale = 1
		}
		if nc.FetchBytesPerCycle <= 0 {
			nc.FetchBytesPerCycle = 1
		}
		f.nodes[i].cfg = nc
		f.nodes[i].store.slots = nc.StoreSlots
	}
	for i := size + n; i < 2*size; i++ {
		f.free[i] = ^uint64(0)
	}
	for i := size - 1; i >= 1; i-- {
		f.free[i] = min(f.free[2*i], f.free[2*i+1])
	}
	return f, nil
}

// freeAt returns the cycle at which node n drains its queue.
func (f *Fleet) freeAt(n int) uint64 { return f.free[len(f.free)/2+n] }

// setFreeAt moves node n's drain cycle and repairs the tree above it.
func (f *Fleet) setFreeAt(n int, at uint64) {
	i := len(f.free)/2 + n
	f.free[i] = at
	for ; i > 1; i /= 2 {
		f.free[i/2] = min(f.free[i], f.free[i^1])
	}
}

// leastLoaded returns the node with the smallest backlog, ties toward
// the lowest index: the leftmost leaf at or below max(now, earliest
// freeAt). When some node is idle that is the lowest-index idle node
// (every idle backlog is 0); otherwise it is the lowest-index node that
// frees first. The query holds for any now, including the later
// instants a deferred placement probes.
func (f *Fleet) leastLoaded() int {
	size := len(f.free) / 2
	limit := max(f.now, f.free[1])
	i := 1
	for i < size {
		i *= 2
		if f.free[i] > limit {
			i++
		}
	}
	return i - size
}

// lessLoaded orders nodes by backlog, then index.
func (f *Fleet) lessLoaded(a, b int) bool {
	ba, bb := f.Backlog(a), f.Backlog(b)
	return ba < bb || ba == bb && a < b
}

// touch is store.touch on node n that keeps the holders index in step: a
// miss lists n under the inserted key and unlists it from the LRU victim.
func (f *Fleet) touch(n int, k Key) bool {
	st := &f.nodes[n].store
	if !st.holds(k) {
		if len(st.keys) == st.slots {
			hs := f.holders[st.keys[0]]
			i, _ := slices.BinarySearch(hs, n)
			f.holders[st.keys[0]] = slices.Delete(hs, i, i+1)
		}
		hs := f.holders[k]
		i, _ := slices.BinarySearch(hs, n)
		f.holders[k] = slices.Insert(hs, i, n)
	}
	return st.touch(k)
}

// eachHolder calls fn once for every node holding at least one of the
// job's configurations, with its affinity hits. Each circuit contributes
// its key's holders; a node that holds an earlier circuit's key (a
// repeated key included) was already visited under it.
func (f *Fleet) eachHolder(job *Job, fn func(n, hits int)) {
	for i, c := range job.Circuits {
	next:
		for _, n := range f.holders[c.Key] {
			for _, prev := range job.Circuits[:i] {
				if f.Holds(n, prev.Key) {
					continue next
				}
			}
			fn(n, f.AffinityHits(n, job))
		}
	}
}

// NumNodes returns the fleet size.
func (f *Fleet) NumNodes() int { return len(f.nodes) }

// Placed returns how many jobs have been placed so far.
func (f *Fleet) Placed() int { return f.placed }

// Backlog returns how many cycles of queued work node n has at the
// current placement instant.
func (f *Fleet) Backlog(n int) uint64 {
	if at := f.freeAt(n); at > f.now {
		return at - f.now
	}
	return 0
}

// ClockScale returns node n's clock multiplier, so capability-aware
// policies can weigh speed as well as locality.
func (f *Fleet) ClockScale(n int) int { return f.nodes[n].cfg.ClockScale }

// Holds reports whether node n's bitstream store holds key k.
func (f *Fleet) Holds(n int, k Key) bool { return f.nodes[n].store.holds(k) }

// AffinityHits counts how many of the job's distinct configurations node
// n already holds.
func (f *Fleet) AffinityHits(n int, job *Job) int {
	hits := 0
	for i, c := range job.Circuits {
		if distinctAt(job, i) && f.Holds(n, c.Key) {
			hits++
		}
	}
	return hits
}

// Rand is the deterministic placement stream stochastic policies draw
// from; it is seeded from the cluster seed, never from wall-clock state.
func (f *Fleet) Rand() *rng.Stream { return f.rand }

// distinctAt reports whether job.Circuits[i] is the first occurrence of
// its key, so per-job accounting counts each configuration once. Jobs
// carry a handful of circuits, so the scan beats allocating a set.
func distinctAt(job *Job, i int) bool {
	for j := 0; j < i; j++ {
		if job.Circuits[j].Key == job.Circuits[i].Key {
			return false
		}
	}
	return true
}

// Execute is phase 1 alone: run every job once per node class,
// concurrently, and return the execution profiles indexed
// [class][job]. Executions are placement-independent, so one Execute can
// feed any number of Replay calls — that is how the placement sweep
// compares policies on one set of simulations instead of re-simulating
// per policy. The derived seed depends only on the job index, never the
// class, so heterogeneous fleets stay comparable with homogeneous ones.
// A share group (jobs with one nonzero Batch id) runs once per class:
// Runner sees its first member, with that member's seed, and the
// profile is recorded — and OnExec fired — for every member.
func Execute(cfg Config, jobs []Job, run Runner) ([][]Exec, error) {
	if run == nil {
		return nil, fmt.Errorf("cluster: nil runner")
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("cluster: no jobs submitted")
	}
	classes := cfg.classes()
	// One execution unit per unshared job and per share group (members
	// in index order), ordered by first appearance, so the partition is
	// deterministic and independent of Workers. unitOf numbers each job's
	// unit; a counting sort then lays every unit's members out in one
	// table, byUnit[start[u]:start[u+1]].
	unitOf := make([]int, len(jobs))
	groupUnit := map[int]int{}
	units := 0
	for i, j := range jobs {
		if u, ok := groupUnit[j.Batch]; ok {
			unitOf[i] = u
			continue
		}
		if j.Batch != 0 {
			groupUnit[j.Batch] = units
		}
		unitOf[i] = units
		units++
	}
	start := make([]int, units+1)
	for _, u := range unitOf {
		start[u+1]++
	}
	for u := range units {
		start[u+1] += start[u]
	}
	byUnit := make([]int, len(jobs))
	next := slices.Clone(start[:units])
	for i, u := range unitOf {
		byUnit[next[u]] = i
		next[u]++
	}
	cells := make([]func() (Exec, error), 0, classes*units)
	for class := range classes {
		for u := range units {
			members := byUnit[start[u]:start[u+1]]
			i := members[0]
			seed := rng.Derive(cfg.Seed, streamJob, uint64(i))
			cells = append(cells, func() (Exec, error) {
				name := fmt.Sprintf("%s/c%d", jobs[i].Label, class)
				if len(members) > 1 {
					name = fmt.Sprintf("%s×%d/c%d", jobs[i].Label, len(members), class)
				}
				var e Exec
				var err error
				obs.Task(context.Background(), "fleet-job", name, func() {
					e, err = run(i, class, seed)
				})
				if err != nil {
					return Exec{}, fmt.Errorf("cluster: job %d (%s) class %d: %w", i, jobs[i].Label, class, err)
				}
				if cfg.OnExec != nil {
					for _, m := range members {
						cfg.OnExec(m, class, e)
					}
				}
				return e, nil
			})
		}
	}
	outs, err := conc.Map(cfg.Workers, cells)
	if err != nil {
		return nil, err
	}
	all := make([]Exec, classes*len(jobs))
	out := make([][]Exec, classes)
	for class := range out {
		out[class] = all[class*len(jobs) : (class+1)*len(jobs)]
		for i, u := range unitOf {
			out[class][i] = outs[class*units+u]
		}
	}
	return out, nil
}

// Replay is phase 2 alone: expand the arrival process and replay
// admission and placement serially over precomputed execution profiles.
// It is deterministic and cheap — all simulation cost lives in Execute.
// Job i's record is written through at(i), so the caller owns the one
// job table; Replay returns the node rows and the fleet totals.
func Replay(cfg Config, jobs []Job, execs [][]Exec, at func(i int) *Placement) ([]NodeResult, Totals, error) {
	if len(jobs) == 0 {
		return nil, Totals{}, fmt.Errorf("cluster: no jobs submitted")
	}
	classes := cfg.classes()
	if len(execs) != classes {
		return nil, Totals{}, fmt.Errorf("cluster: %d execution classes for %d node classes", len(execs), classes)
	}
	for class, ce := range execs {
		if len(ce) != len(jobs) {
			return nil, Totals{}, fmt.Errorf("cluster: class %d has %d execution profiles for %d jobs", class, len(ce), len(jobs))
		}
	}
	f, err := newFleet(cfg, classes)
	if err != nil {
		return nil, Totals{}, err
	}
	if cfg.Admission.Bound < 0 {
		return nil, Totals{}, fmt.Errorf("cluster: negative admission bound %d", cfg.Admission.Bound)
	}
	pol := cfg.Policy
	if pol == nil {
		pol = RoundRobin()
	}

	arrive, err := cfg.Arrivals.times(len(jobs), cfg.Seed)
	if err != nil {
		return nil, Totals{}, err
	}
	nodes := make([]NodeResult, len(f.nodes))
	for n := range f.nodes {
		nodes[n] = NodeResult{Node: n, Class: f.nodes[n].cfg.Class, ClockScale: f.nodes[n].cfg.ClockScale}
	}
	var tot Totals
	lats := make([]uint64, 0, len(jobs))
	bound := cfg.Admission.Bound
	for i := range jobs {
		job := &jobs[i]
		now := arrive[i]
		f.now = now
		n := pol.Place(f, job)
		if n < 0 || n >= len(f.nodes) {
			return nil, Totals{}, fmt.Errorf("cluster: policy %s placed job %d on node %d of a %d-node fleet",
				pol.Name(), i, n, len(f.nodes))
		}
		p := at(i)
		*p = Placement{Node: n, Arrival: now}
		if bound > 0 && f.nodes[n].depth(now) >= bound {
			if !cfg.Admission.Defer {
				p.Node = -1
				p.Shed = true
				tot.Shed++
				f.placed++
				continue
			}
			// Defer: wait for the earliest slot anywhere in the fleet,
			// then re-run placement at that instant; if the policy still
			// insists on a full node, fall back to the node that freed.
			// A slot already free elsewhere (at == now) is a diversion,
			// not a deferral — the job never waited, so it does not
			// count toward the Deferred statistics.
			freed, slot := 0, f.nodes[0].slotFreeAt(now, bound)
			for cand := 1; cand < len(f.nodes); cand++ {
				if t := f.nodes[cand].slotFreeAt(now, bound); t < slot {
					freed, slot = cand, t
				}
			}
			if slot > now {
				p.Deferred = true
				p.DeferCycles = slot - now
				tot.Deferred++
				tot.DeferCycles += p.DeferCycles
				now = slot
				f.now = now
			}
			n = pol.Place(f, job)
			if n < 0 || n >= len(f.nodes) || f.nodes[n].depth(now) >= bound {
				n = freed
			}
			p.Node = n
		}
		ns := &f.nodes[n]
		clock := uint64(ns.cfg.ClockScale)
		service := (execs[ns.cfg.Class][i].Cycles + clock - 1) / clock
		bw := uint64(ns.cfg.FetchBytesPerCycle)
		for ci, c := range job.Circuits {
			if !distinctAt(job, ci) {
				continue
			}
			if f.touch(n, c.Key) {
				p.WarmHits++
			} else {
				p.ColdLoads++
				p.FetchCycles += (uint64(c.Bytes) + bw - 1) / bw
			}
		}
		p.Start = max(now, f.freeAt(n))
		p.Completion = p.Start + p.FetchCycles + service
		p.Latency = p.Completion - p.Arrival
		lats = append(lats, p.Latency)
		f.setFreeAt(n, p.Completion)
		if bound > 0 {
			ns.completions = append(ns.completions, p.Completion)
		}
		f.placed++

		nr := &nodes[n]
		nr.Jobs++
		nr.Busy += p.FetchCycles + service
		nr.ColdLoads += p.ColdLoads
		nr.WarmHits += p.WarmHits
		nr.FetchCycles += p.FetchCycles
		nr.Completion = p.Completion
		tot.Busy += p.FetchCycles + service
		tot.ColdLoads += p.ColdLoads
		tot.WarmHits += p.WarmHits
		tot.FetchCycles += p.FetchCycles
		tot.Makespan = max(tot.Makespan, p.Completion)
	}
	tot.Latency = latencyStats(lats)
	return nodes, tot, nil
}
