package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"protean/internal/rng"
)

// The reference policies are the built-in policies' original full scans:
// every node, every job, through the public Fleet view only. They carry
// the built-ins' names, so a replay under either produces comparable
// traces.

type refLeastLoaded struct{}

func (refLeastLoaded) Name() string { return "least-loaded" }

func (refLeastLoaded) Place(f *Fleet, _ *Job) int {
	best := 0
	for n := 1; n < f.NumNodes(); n++ {
		if f.Backlog(n) < f.Backlog(best) {
			best = n
		}
	}
	return best
}

type refAffinity struct{}

func (refAffinity) Name() string { return "config-affinity" }

func (refAffinity) Place(f *Fleet, job *Job) int {
	best, bestHits := -1, 0
	for n := 0; n < f.NumNodes(); n++ {
		hits := f.AffinityHits(n, job)
		switch {
		case hits == 0:
			continue
		case best < 0, hits > bestHits,
			hits == bestHits && f.Backlog(n) < f.Backlog(best):
			best, bestHits = n, hits
		}
	}
	if best < 0 {
		return refLeastLoaded{}.Place(f, job)
	}
	return best
}

type refWeightedAffinity struct{ w weightedAffinity }

func (refWeightedAffinity) Name() string { return "weighted-affinity" }

func (r refWeightedAffinity) Place(f *Fleet, job *Job) int {
	best := 0
	bestScore := r.w.score(f, 0, f.AffinityHits(0, job))
	for n := 1; n < f.NumNodes(); n++ {
		if s := r.w.score(f, n, f.AffinityHits(n, job)); s > bestScore {
			best, bestScore = n, s
		}
	}
	return best
}

// fleetRun is one replay's output: the job records Replay wrote, the
// node rows and the totals it returned.
type fleetRun struct {
	Jobs  []Placement
	Nodes []NodeResult
	Totals
}

// replay is Replay into a fresh job table.
func replay(cfg Config, jobs []Job, execs [][]Exec) (*fleetRun, error) {
	fr := &fleetRun{Jobs: make([]Placement, len(jobs))}
	var err error
	fr.Nodes, fr.Totals, err = Replay(cfg, jobs, execs, func(i int) *Placement { return &fr.Jobs[i] })
	if err != nil {
		return nil, err
	}
	return fr, nil
}

// service is the service time charged to an admitted job: what its
// timeline holds beyond the fetches.
func service(p Placement) uint64 { return p.Completion - p.Start - p.FetchCycles }

// checkTrace asserts the replay's accounting laws on tr: per-node FIFO
// service without overlap, completion = start + fetch + service at the
// node's clock, no start before arrival plus deferral, latency =
// completion − arrival, node and fleet totals equal to the sums over
// their jobs, the latency statistics of the admitted jobs, and admitted
// + shed = jobs.
func checkTrace(t *testing.T, jobs []Job, execs [][]Exec, tr *fleetRun) {
	t.Helper()
	if len(tr.Jobs) != len(jobs) {
		t.Fatalf("trace has %d jobs for %d submitted", len(tr.Jobs), len(jobs))
	}
	nodes := make([]NodeResult, len(tr.Nodes))
	for n, nr := range tr.Nodes {
		nodes[n].Node, nodes[n].Class, nodes[n].ClockScale = n, nr.Class, nr.ClockScale
	}
	var fleet Totals
	var lats []uint64
	admitted := 0
	for i, jt := range tr.Jobs {
		if jt.Deferred != (jt.DeferCycles > 0) {
			t.Errorf("job %d: deferred %v with %d defer cycles", i, jt.Deferred, jt.DeferCycles)
		}
		if jt.Deferred {
			fleet.Deferred++
			fleet.DeferCycles += jt.DeferCycles
		}
		if jt.Shed {
			fleet.Shed++
			if jt.Node != -1 || jt.Start != 0 || jt.Completion != 0 || jt.Latency != 0 ||
				jt.ColdLoads != 0 || jt.WarmHits != 0 || jt.FetchCycles != 0 {
				t.Errorf("shed job %d carries placement state: %+v", i, jt)
			}
			continue
		}
		admitted++
		if jt.Node < 0 || jt.Node >= len(nodes) {
			t.Fatalf("job %d on node %d of %d", i, jt.Node, len(nodes))
		}
		nt := &nodes[jt.Node]
		clock := uint64(nt.ClockScale)
		want := (execs[nt.Class][i].Cycles + clock - 1) / clock
		if jt.Completion < jt.Start+jt.FetchCycles || service(jt) != want {
			t.Errorf("job %d: completion %d != start %d + fetch %d + service %d", i, jt.Completion, jt.Start, jt.FetchCycles, want)
		}
		distinct := uint64(0)
		for ci := range jobs[i].Circuits {
			if distinctAt(&jobs[i], ci) {
				distinct++
			}
		}
		if jt.ColdLoads+jt.WarmHits != distinct {
			t.Errorf("job %d: %d cold + %d warm for %d distinct configurations", i, jt.ColdLoads, jt.WarmHits, distinct)
		}
		if jt.Start < jt.Arrival+jt.DeferCycles {
			t.Errorf("job %d starts at %d before arrival %d + deferral %d", i, jt.Start, jt.Arrival, jt.DeferCycles)
		}
		if nt.Jobs > 0 && jt.Start < nt.Completion {
			t.Errorf("job %d starts at %d on node %d before its previous job completes at %d", i, jt.Start, jt.Node, nt.Completion)
		}
		if jt.Latency != jt.Completion-jt.Arrival {
			t.Errorf("job %d: latency %d != completion %d − arrival %d", i, jt.Latency, jt.Completion, jt.Arrival)
		}
		lats = append(lats, jt.Latency)
		nt.Jobs++
		nt.Busy += jt.FetchCycles + want
		nt.ColdLoads += jt.ColdLoads
		nt.WarmHits += jt.WarmHits
		nt.FetchCycles += jt.FetchCycles
		nt.Completion = jt.Completion
		fleet.Busy += jt.FetchCycles + want
		fleet.ColdLoads += jt.ColdLoads
		fleet.WarmHits += jt.WarmHits
		fleet.FetchCycles += jt.FetchCycles
		fleet.Makespan = max(fleet.Makespan, jt.Completion)
	}
	if !reflect.DeepEqual(nodes, tr.Nodes) {
		t.Errorf("node rows are not the sums over their jobs:\n got %+v\nwant %+v", tr.Nodes, nodes)
	}
	if admitted+tr.Shed != len(jobs) {
		t.Errorf("admitted %d + shed %d != %d jobs", admitted, tr.Shed, len(jobs))
	}
	fleet.Latency = latencyStats(lats)
	if fleet != tr.Totals {
		t.Errorf("fleet totals are not the sums over the jobs:\n got %+v\nwant %+v", tr.Totals, fleet)
	}
}

// runChecked is Execute and Replay followed by checkTrace.
func runChecked(t *testing.T, cfg Config, jobs []Job, run Runner) *fleetRun {
	t.Helper()
	execs, err := Execute(cfg, jobs, run)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := replay(cfg, jobs, execs)
	if err != nil {
		t.Fatal(err)
	}
	checkTrace(t, jobs, execs, tr)
	return tr
}

// randomFleet draws one replay input from seed: 1–40 nodes with 1–3
// store slots, 1–2 clock scales and execution classes, jobs carrying 0–3
// circuits from a small key pool (repeats within a job included),
// Poisson or batch arrivals, and no admission bound or a small one that
// sheds or defers.
func randomFleet(seed int64) (Config, []Job, [][]Exec) {
	r := rng.New(seed)
	between := func(lo, hi int) int { return lo + int(r.Below(uint64(hi-lo+1))) }
	cfg := Config{Seed: seed, Classes: between(1, 2)}
	cfg.NodeConfigs = make([]NodeConfig, between(1, 40))
	for n := range cfg.NodeConfigs {
		cfg.NodeConfigs[n] = NodeConfig{
			StoreSlots:         between(1, 3),
			ClockScale:         between(1, 2),
			FetchBytesPerCycle: between(1, 4),
			Class:              between(0, cfg.Classes-1),
		}
	}
	if r.Below(4) > 0 {
		cfg.Arrivals = Arrivals{Kind: ArrivePoisson, MeanGap: uint64(between(1, 5000))}
	}
	if r.Below(2) == 0 {
		cfg.Admission = Admission{Bound: between(1, 3), Defer: r.Below(2) == 0}
	}
	keys := between(1, 6)
	jobs := make([]Job, between(1, 80))
	for i := range jobs {
		jobs[i].Label = fmt.Sprint("j", i)
		for c := between(0, 3); c > 0; c-- {
			jobs[i].Circuits = append(jobs[i].Circuits,
				Circuit{Key: key(byte(r.Below(uint64(keys)))), Bytes: between(1, 4000)})
		}
	}
	execs := make([][]Exec, cfg.Classes)
	for c := range execs {
		execs[c] = make([]Exec, len(jobs))
		for i := range jobs {
			execs[c][i].Cycles = r.Exp(3000)
		}
	}
	return cfg, jobs, execs
}

// TestIndexedPlacementMatchesScan replays random fleets under each
// built-in indexed policy and its full-scan reference; the traces must be
// identical and satisfy the accounting laws.
func TestIndexedPlacementMatchesScan(t *testing.T) {
	weights := []uint64{1, 50, 1000, DefaultAffinityWeight, 1 << 63, ^uint64(0)}
	deferred, shed := 0, 0
	for seed := int64(1); seed <= 400; seed++ {
		cfg, jobs, execs := randomFleet(seed)
		w := WeightedAffinity(weights[seed%int64(len(weights))]).(weightedAffinity)
		for _, p := range [][2]PlacementPolicy{
			{LeastLoaded(), refLeastLoaded{}},
			{Affinity(), refAffinity{}},
			{w, refWeightedAffinity{w}},
		} {
			cfg.Policy = p[0]
			got, err := replay(cfg, jobs, execs)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Policy = p[1]
			want, err := replay(cfg, jobs, execs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				for i := range got.Jobs {
					if got.Jobs[i] != want.Jobs[i] {
						t.Fatalf("seed %d, %s: job %d placed %+v, scan placed %+v", seed, p[0].Name(), i, got.Jobs[i], want.Jobs[i])
					}
				}
				t.Fatalf("seed %d, %s: traces differ", seed, p[0].Name())
			}
			checkTrace(t, jobs, execs, got)
			deferred += got.Deferred
			shed += got.Shed
		}
	}
	if deferred == 0 || shed == 0 {
		t.Errorf("random fleets never exercised admission: %d deferred, %d shed", deferred, shed)
	}
}

// BenchmarkReplay measures placement replay alone at the fleet
// benchmark's shape — 768 jobs of three single-circuit kinds, 2-slot
// stores, Poisson gap 2000 — over growing fleets, so the per-job cost's
// dependence on the node count shows directly.
func BenchmarkReplay(b *testing.B) {
	const jobCount = 768
	jobs := make([]Job, jobCount)
	execs := [][]Exec{make([]Exec, jobCount)}
	for i := range jobs {
		kind := i % 3
		jobs[i] = Job{Label: fmt.Sprint("k", kind), Circuits: []Circuit{{Key: key(byte(kind)), Bytes: 4096}}}
		execs[0][i].Cycles = 20_000 + uint64(kind)*10_000
	}
	for _, pol := range []PlacementPolicy{Affinity(), WeightedAffinity(0), LeastLoaded()} {
		for _, nodes := range []int{1_000, 10_000, 100_000} {
			b.Run(fmt.Sprintf("%s/%dk", pol.Name(), nodes/1000), func(b *testing.B) {
				cfg := Config{NodeConfigs: fleetOf(nodes, NodeConfig{StoreSlots: 2}), Seed: 7, Policy: pol,
					Arrivals: Arrivals{Kind: ArrivePoisson, MeanGap: 2000}}
				rows := make([]Placement, jobCount)
				at := func(i int) *Placement { return &rows[i] }
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := Replay(cfg, jobs, execs, at); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
