package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"protean/internal/rng"
)

// key makes a distinguishable Key from a byte tag.
func key(tag byte) Key {
	var k Key
	k[0] = tag
	return k
}

// fixedRunner returns a runner whose job i takes cycles[i%len(cycles)]
// cycles, independent of seed.
func fixedRunner(cycles ...uint64) Runner {
	return func(i, _ int, _ int64) (Exec, error) {
		return Exec{Cycles: cycles[i%len(cycles)]}, nil
	}
}

// fleetOf builds the NodeConfigs of an n-node fleet of identical nodes.
func fleetOf(n int, nc NodeConfig) []NodeConfig {
	return slices.Repeat([]NodeConfig{nc}, n)
}

// altJobs builds n jobs alternating between two single-circuit kinds.
func altJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Label:    string(rune('A' + i%2)),
			Circuits: []Circuit{{Key: key(byte(i % 2)), Bytes: 1000}},
		}
	}
	return jobs
}

func TestStoreLRU(t *testing.T) {
	st := store{slots: 2}
	if st.touch(key(1)) {
		t.Fatal("empty store hit")
	}
	if !st.touch(key(1)) {
		t.Fatal("resident key missed")
	}
	st.touch(key(2))
	st.touch(key(1)) // refresh 1: LRU order now [2, 1]
	st.touch(key(3)) // evicts 2
	if st.holds(key(2)) {
		t.Error("LRU victim 2 still resident")
	}
	if !st.holds(key(1)) || !st.holds(key(3)) {
		t.Errorf("store lost a resident key: %v", st.keys)
	}
	if len(st.keys) != 2 {
		t.Errorf("store overflowed its slots: %d keys", len(st.keys))
	}
}

// expand is a test helper unwrapping the arrival expansion.
func expand(t *testing.T, a Arrivals, n int, seed int64) []uint64 {
	t.Helper()
	out, err := a.times(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestArrivalTimes(t *testing.T) {
	if got := expand(t, Arrivals{}, 4, 1); !reflect.DeepEqual(got, []uint64{0, 0, 0, 0}) {
		t.Errorf("batch arrivals = %v", got)
	}
	a := Arrivals{Kind: ArrivePoisson, MeanGap: 1000}
	got := expand(t, a, 64, 1)
	if !reflect.DeepEqual(got, expand(t, a, 64, 1)) {
		t.Error("arrival times not deterministic")
	}
	if reflect.DeepEqual(got, expand(t, a, 64, 2)) {
		t.Error("arrival times ignore the seed")
	}
}

func TestArrivalPoisson(t *testing.T) {
	a := Arrivals{Kind: ArrivePoisson, MeanGap: 1000}
	got := expand(t, a, 512, 1)
	prev := uint64(0)
	var sum uint64
	for i, v := range got {
		if v < prev {
			t.Fatalf("arrival clock decreased at job %d", i)
		}
		sum += v - prev
		prev = v
	}
	mean := float64(sum) / 512
	if mean < 800 || mean > 1200 {
		t.Errorf("poisson mean gap = %.1f, want ≈1000", mean)
	}
	if !reflect.DeepEqual(got, expand(t, a, 512, 1)) {
		t.Error("poisson arrivals not deterministic")
	}
}

func TestArrivalTrace(t *testing.T) {
	times := []uint64{0, 5, 5, 100}
	got := expand(t, Arrivals{Kind: ArriveTrace, Times: times}, 4, 1)
	if !reflect.DeepEqual(got, times) {
		t.Errorf("trace arrivals = %v, want %v", got, times)
	}
	// A longer trace covers a shorter job list.
	if got := expand(t, Arrivals{Kind: ArriveTrace, Times: times}, 2, 1); !reflect.DeepEqual(got, times[:2]) {
		t.Errorf("truncated trace arrivals = %v", got)
	}
	if _, err := (Arrivals{Kind: ArriveTrace, Times: times}).times(5, 1); err == nil {
		t.Error("short trace accepted")
	}
	if _, err := (Arrivals{Kind: ArriveTrace, Times: []uint64{5, 4}}).times(2, 1); err == nil {
		t.Error("decreasing trace accepted")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	tr := runChecked(t, Config{NodeConfigs: fleetOf(3, NodeConfig{}), Seed: 1}, altJobs(6), fixedRunner(100))
	for i, jt := range tr.Jobs {
		if jt.Node != i%3 {
			t.Errorf("job %d on node %d, want %d", i, jt.Node, i%3)
		}
	}
}

func TestLeastLoadedPrefersIdle(t *testing.T) {
	// Job 0 is huge; with batch arrivals, least-loaded must route all
	// later jobs around node 0.
	jobs := altJobs(4)
	tr := runChecked(t, Config{NodeConfigs: fleetOf(2, NodeConfig{}), Seed: 1, Policy: LeastLoaded()},
		jobs, fixedRunner(1_000_000, 10, 10, 10))
	if tr.Jobs[0].Node != 0 {
		t.Fatalf("first job on node %d", tr.Jobs[0].Node)
	}
	for i, jt := range tr.Jobs[1:] {
		if jt.Node != 1 {
			t.Errorf("job %d placed on the busy node", i+1)
		}
	}
}

func TestAffinityPinsKindsToNodes(t *testing.T) {
	// Alternating A/B jobs on a 3-node fleet with single-slot stores:
	// affinity must pin each kind to one node after the cold start —
	// exactly 2 cold loads total — while round-robin's 3-cycle is out of
	// phase with the 2-cycle of kinds, so every node alternates kinds and
	// every placement is cold.
	jobs := altJobs(12)
	aff := runChecked(t, Config{NodeConfigs: fleetOf(3, NodeConfig{StoreSlots: 1}), Seed: 1, Policy: Affinity()},
		jobs, fixedRunner(100))
	if aff.ColdLoads != 2 {
		t.Errorf("affinity cold loads = %d, want 2", aff.ColdLoads)
	}
	if aff.WarmHits != 10 {
		t.Errorf("affinity warm hits = %d, want 10", aff.WarmHits)
	}
	rr := runChecked(t, Config{NodeConfigs: fleetOf(3, NodeConfig{StoreSlots: 1}), Seed: 1, Policy: RoundRobin()},
		jobs, fixedRunner(100))
	if rr.ColdLoads != 12 {
		t.Errorf("round-robin cold loads = %d, want 12 (kinds out of phase with nodes)", rr.ColdLoads)
	}
	if aff.ColdLoads >= rr.ColdLoads {
		t.Errorf("affinity (%d) did not beat round-robin (%d)", aff.ColdLoads, rr.ColdLoads)
	}
}

func TestAffinityFallsBackToLeastLoaded(t *testing.T) {
	// No node ever holds job circuits (jobs carry none), so affinity must
	// behave exactly like least-loaded.
	jobs := make([]Job, 8)
	aff := runChecked(t, Config{NodeConfigs: fleetOf(4, NodeConfig{}), Seed: 1, Policy: Affinity()}, jobs, fixedRunner(100))
	ll := runChecked(t, Config{NodeConfigs: fleetOf(4, NodeConfig{}), Seed: 1, Policy: LeastLoaded()}, jobs, fixedRunner(100))
	for i := range aff.Jobs {
		if aff.Jobs[i].Node != ll.Jobs[i].Node {
			t.Errorf("job %d: affinity node %d, least-loaded node %d",
				i, aff.Jobs[i].Node, ll.Jobs[i].Node)
		}
	}
}

func TestRandomPlacementDeterministicPerSeed(t *testing.T) {
	jobs := altJobs(32)
	run := func(seed int64) *fleetRun {
		tr := runChecked(t, Config{NodeConfigs: fleetOf(4, NodeConfig{}), Seed: seed, Policy: Random()}, jobs, fixedRunner(100))
		return tr
	}
	if !reflect.DeepEqual(run(3), run(3)) {
		t.Error("random placement not reproducible for one seed")
	}
	if reflect.DeepEqual(run(3).Jobs, run(4).Jobs) {
		t.Error("random placement identical across seeds")
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	jobs := altJobs(24)
	var ref *fleetRun
	for _, workers := range []int{1, 4, 16} {
		tr := runChecked(t, Config{
			NodeConfigs: fleetOf(3, NodeConfig{StoreSlots: 1}), Seed: 9, Workers: workers,
			Policy: Affinity(), Arrivals: Arrivals{Kind: ArrivePoisson, MeanGap: 500},
		}, jobs, func(i, _ int, seed int64) (Exec, error) {
			// Service time depends on the derived seed, so this also
			// checks that seeds are independent of worker count.
			return Exec{Cycles: 100 + uint64(seed)%1000}, nil
		})
		if ref == nil {
			ref = tr
		} else if !reflect.DeepEqual(ref, tr) {
			t.Fatalf("trace differs at workers=%d", workers)
		}
	}
}

func TestRunTimeline(t *testing.T) {
	// One node: jobs serialize; completion = start + fetch + cycles.
	jobs := altJobs(2)
	tr := runChecked(t, Config{NodeConfigs: fleetOf(1, NodeConfig{FetchBytesPerCycle: 100}), Seed: 1}, jobs, fixedRunner(500))
	j0, j1 := tr.Jobs[0], tr.Jobs[1]
	if j0.FetchCycles != 10 { // 1000 bytes at 100 B/cycle
		t.Errorf("fetch cycles = %d, want 10", j0.FetchCycles)
	}
	if j0.Completion != 510 {
		t.Errorf("job 0 completion = %d, want 510", j0.Completion)
	}
	if j1.Start != j0.Completion {
		t.Errorf("job 1 started at %d before node freed at %d", j1.Start, j0.Completion)
	}
	if tr.Makespan != j1.Completion || tr.Nodes[0].Jobs != 2 {
		t.Errorf("trace totals wrong: %+v", tr)
	}
}

func TestRunnerErrorPropagates(t *testing.T) {
	sentinel := errors.New("session exploded")
	_, err := Execute(Config{NodeConfigs: fleetOf(2, NodeConfig{}), Seed: 1}, altJobs(8),
		func(i, _ int, _ int64) (Exec, error) {
			if i == 3 {
				return Exec{}, sentinel
			}
			return Exec{Cycles: 1}, nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the runner's error", err)
	}
	if !strings.Contains(err.Error(), "job 3") {
		t.Errorf("error does not name the failing job: %v", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Execute(Config{}, nil, fixedRunner(1)); err == nil {
		t.Error("empty job list accepted")
	}
	if _, err := Execute(Config{}, altJobs(1), nil); err == nil {
		t.Error("nil runner accepted")
	}
}

func TestParsePlacement(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePlacement(p.Name())
		if err != nil || got.Name() != p.Name() {
			t.Errorf("ParsePlacement(%q) = %v, %v", p.Name(), got, err)
		}
	}
	for spelling, want := range map[string]string{
		"rr": "round-robin", "ll": "least-loaded", "affinity": "config-affinity",
	} {
		got, err := ParsePlacement(spelling)
		if err != nil || got.Name() != want {
			t.Errorf("ParsePlacement(%q) = %v, %v", spelling, got, err)
		}
	}
	if _, err := ParsePlacement("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestArrivalGapClamped(t *testing.T) {
	// A maximal gap must neither panic nor wrap the arrival clock for a
	// handful of jobs.
	got := expand(t, Arrivals{Kind: ArrivePoisson, MeanGap: ^uint64(0)}, 8, 1)
	prev := uint64(0)
	for i, v := range got {
		if v < prev {
			t.Fatalf("arrival clock wrapped at job %d: %d < %d", i, v, prev)
		}
		prev = v
	}
}

// hetero builds a 2-node, 2-class fleet: node 0 is the reference
// workstation, node 1 runs class 1 at double clock.
func heteroConfig() Config {
	return Config{
		NodeConfigs: []NodeConfig{
			{Class: 0},
			{Class: 1, ClockScale: 2},
		},
		Classes: 2,
		Seed:    1,
	}
}

// classRunner gives class c executions c+1 times the base cycle count,
// so tests can tell which profile a node charged.
func classRunner(base uint64) Runner {
	return func(i, class int, _ int64) (Exec, error) {
		return Exec{Cycles: base * uint64(class+1)}, nil
	}
}

func TestHeterogeneousClassesAndClock(t *testing.T) {
	jobs := altJobs(2)
	tr := runChecked(t, heteroConfig(), jobs, classRunner(1000))
	// Round-robin: job 0 on node 0 (class 0, clock 1 → 1000 cycles),
	// job 1 on node 1 (class 1 profile 2000 cycles, clock 2 → 1000).
	if got := service(tr.Jobs[0]); got != 1000 {
		t.Errorf("node 0 service = %d, want 1000", got)
	}
	if got := service(tr.Jobs[1]); got != 1000 {
		t.Errorf("node 1 service = %d, want 2000/2 = 1000", got)
	}
	if tr.Nodes[1].Class != 1 || tr.Nodes[1].ClockScale != 2 {
		t.Errorf("node row lost its configuration: %+v", tr.Nodes[1])
	}
	// Odd service must round up, never truncate to free cycles.
	tr = runChecked(t, heteroConfig(), jobs, classRunner(1001))
	if got := service(tr.Jobs[1]); got != 1001 {
		t.Errorf("ceil division lost cycles: %d, want 1001", got)
	}
}

func TestExecuteClassSeedsMatchHomogeneous(t *testing.T) {
	// The per-job derived seed must not depend on the class, so a
	// heterogeneous run stays comparable with the homogeneous one.
	jobs := altJobs(4)
	var homoSeeds, heteroSeeds [4]int64
	if _, err := Execute(Config{NodeConfigs: fleetOf(2, NodeConfig{}), Seed: 7}, jobs, func(i, _ int, seed int64) (Exec, error) {
		homoSeeds[i] = seed
		return Exec{Cycles: 1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	cfg := heteroConfig()
	cfg.Seed = 7
	cfg.Workers = 1
	if _, err := Execute(cfg, jobs, func(i, class int, seed int64) (Exec, error) {
		if class == 0 {
			heteroSeeds[i] = seed
		} else if heteroSeeds[i] != seed {
			t.Errorf("job %d: class 1 seed %d != class 0 seed %d", i, seed, heteroSeeds[i])
		}
		return Exec{Cycles: 1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if homoSeeds != heteroSeeds {
		t.Errorf("per-job seeds drifted between class layouts: %v vs %v", homoSeeds, heteroSeeds)
	}
}

func TestAdmissionShed(t *testing.T) {
	// One node, bound 2, batch arrivals: the first two jobs are admitted,
	// the rest shed.
	jobs := altJobs(5)
	tr := runChecked(t, Config{NodeConfigs: fleetOf(1, NodeConfig{}), Seed: 1, Admission: Admission{Bound: 2}},
		jobs, fixedRunner(100))
	if tr.Shed != 3 {
		t.Fatalf("shed = %d, want 3: %+v", tr.Shed, tr.Jobs)
	}
	for i, jt := range tr.Jobs[2:] {
		if !jt.Shed || jt.Node != -1 || jt.Completion != 0 {
			t.Errorf("job %d not recorded as shed: %+v", i+2, jt)
		}
	}
	if tr.Nodes[0].Jobs != 2 {
		t.Errorf("node ran %d jobs, want 2", tr.Nodes[0].Jobs)
	}
	// The shed jobs charge nothing: makespan covers only admitted work.
	if want := tr.Jobs[1].Completion; tr.Makespan != want {
		t.Errorf("makespan = %d, want %d", tr.Makespan, want)
	}
}

func TestAdmissionDefer(t *testing.T) {
	// One node, bound 1, defer: jobs serialize, each waiting for the
	// previous completion, and nothing is shed.
	jobs := altJobs(3)
	tr := runChecked(t, Config{NodeConfigs: fleetOf(1, NodeConfig{}), Seed: 1, Admission: Admission{Bound: 1, Defer: true}},
		jobs, fixedRunner(100))
	if tr.Shed != 0 || tr.Deferred != 2 {
		t.Fatalf("shed=%d deferred=%d, want 0/2", tr.Shed, tr.Deferred)
	}
	for i := 1; i < 3; i++ {
		if tr.Jobs[i].Start != tr.Jobs[i-1].Completion {
			t.Errorf("job %d started at %d, want at previous completion %d",
				i, tr.Jobs[i].Start, tr.Jobs[i-1].Completion)
		}
		if !tr.Jobs[i].Deferred || tr.Jobs[i].DeferCycles == 0 {
			t.Errorf("job %d defer not recorded: %+v", i, tr.Jobs[i])
		}
	}
	if tr.DeferCycles != tr.Jobs[1].DeferCycles+tr.Jobs[2].DeferCycles {
		t.Errorf("defer cycle sum wrong: %d", tr.DeferCycles)
	}
}

func TestAdmissionDeferRebalances(t *testing.T) {
	// Two nodes, bound 1, round-robin wants node i%2 — but when the
	// chosen node is full the deferral must re-place onto whichever node
	// frees first rather than shed.
	jobs := altJobs(6)
	tr := runChecked(t, Config{NodeConfigs: fleetOf(2, NodeConfig{}), Seed: 1, Admission: Admission{Bound: 1, Defer: true}},
		jobs, fixedRunner(100, 1000))
	if tr.Shed != 0 {
		t.Fatalf("defer mode shed %d jobs", tr.Shed)
	}
	for i, jt := range tr.Jobs {
		if jt.Node < 0 {
			t.Fatalf("job %d unplaced: %+v", i, jt)
		}
	}
	// With unequal service times, strict round-robin would idle behind the
	// slow node; the fall-back to whichever node freed first must move at
	// least one job off its round-robin slot.
	diverged := false
	for i, jt := range tr.Jobs {
		if jt.Node != i%2 {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("defer re-placement never diverged from strict round-robin")
	}
}

func TestWeightedAffinityHugeWeightSaturates(t *testing.T) {
	// A pathological spec weight (2^63) times 2 affinity hits wraps
	// uint64; the score must saturate instead, so the doubly-warm node
	// still outranks a cold one. Four identical 2-circuit jobs must all
	// pin to the node that warmed up first.
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{Label: "J", Circuits: []Circuit{
			{Key: key(1), Bytes: 100},
			{Key: key(2), Bytes: 100},
		}}
	}
	tr := runChecked(t, Config{NodeConfigs: fleetOf(2, NodeConfig{StoreSlots: 2}), Seed: 1, Policy: WeightedAffinity(1 << 63)},
		jobs, fixedRunner(100))
	for i, jt := range tr.Jobs {
		if jt.Node != 0 {
			t.Errorf("job %d diverted to node %d: saturating score lost to a cold node", i, jt.Node)
		}
	}
	if tr.ColdLoads != 2 {
		t.Errorf("cold loads = %d, want 2 (both circuits fetched once)", tr.ColdLoads)
	}
}

func TestWeightedAffinityBalancesKindsAcrossSpareNodes(t *testing.T) {
	// 2 kinds over 3 nodes with batch arrivals: pure affinity pins each
	// kind to one node and never uses node 2; the weighted hybrid spreads
	// once the backlog difference exceeds the weight, while still beating
	// round-robin's cold-load churn.
	jobs := altJobs(12)
	service := uint64(10_000)
	run := func(pol PlacementPolicy) *fleetRun {
		tr := runChecked(t, Config{NodeConfigs: fleetOf(3, NodeConfig{StoreSlots: 1}), Seed: 1, Policy: pol},
			jobs, fixedRunner(service))
		return tr
	}
	aff := run(Affinity())
	rr := run(RoundRobin())
	wa := run(WeightedAffinity(service * 2))
	if aff.Nodes[2].Jobs != 0 {
		t.Fatalf("premise broken: pure affinity used the spare node (%d jobs)", aff.Nodes[2].Jobs)
	}
	if wa.Makespan >= aff.Makespan {
		t.Errorf("weighted makespan %d not below pure affinity %d", wa.Makespan, aff.Makespan)
	}
	if wa.ColdLoads >= rr.ColdLoads {
		t.Errorf("weighted cold loads %d not below round-robin %d", wa.ColdLoads, rr.ColdLoads)
	}
	t.Logf("makespan rr=%d aff=%d weighted=%d; cold loads rr=%d aff=%d weighted=%d",
		rr.Makespan, aff.Makespan, wa.Makespan, rr.ColdLoads, aff.ColdLoads, wa.ColdLoads)
}

// shareTrial is one random share-group tagging for the Execute tests.
type shareTrial struct {
	jobs     []Job       // tagged; one group (Batch 1) has more than 64 jobs
	cleared  []Job       // jobs with every Batch cleared
	first    map[int]int // Batch id -> index of the group's first member
	unshared int         // jobs with Batch 0
	cfg      Config      // 1-3 classes over 5 nodes, Workers 1
}

// cycles is a seed-insensitive profile: a group's members share one
// value per class, an unshared job has its own.
func (st shareTrial) cycles(i, class int) uint64 {
	if b := st.jobs[i].Batch; b != 0 {
		return uint64(1000*b + 10*class)
	}
	return uint64(100_000 + 10*i + class)
}

// shareTrials builds six random taggings, each with one share group of
// 65–84 jobs, a few smaller groups and some unshared jobs, shuffled.
func shareTrials() []shareTrial {
	r := rng.New(20)
	var out []shareTrial
	for trial := range 6 {
		classes := 1 + int(r.Below(3))
		big := 65 + int(r.Below(20))
		jobs := altJobs(big + 20 + int(r.Below(60)))
		for i := range jobs {
			if i < big {
				jobs[i].Batch = 1
			} else {
				jobs[i].Batch = int(r.Below(6)) // 0 = unshared
			}
		}
		for i := len(jobs) - 1; i > 0; i-- {
			k := int(r.Below(uint64(i + 1)))
			jobs[i].Batch, jobs[k].Batch = jobs[k].Batch, jobs[i].Batch
		}
		st := shareTrial{jobs: jobs, cleared: slices.Clone(jobs), first: map[int]int{}}
		for i := range jobs {
			st.cleared[i].Batch = 0
			if b := jobs[i].Batch; b == 0 {
				st.unshared++
			} else if _, ok := st.first[b]; !ok {
				st.first[b] = i
			}
		}
		st.cfg = Config{Classes: classes, Seed: int64(trial), Workers: 1,
			Arrivals: Arrivals{Kind: ArrivePoisson, MeanGap: 2000}}
		for n := range 5 {
			st.cfg.NodeConfigs = append(st.cfg.NodeConfigs, NodeConfig{Class: n % classes})
		}
		out = append(out, st)
	}
	return out
}

// TestExecutionChunks checks how Execute partitions jobs into execution
// units on random taggings at workers 1, 4 and 8: Runner runs once per
// class for each share group — a group larger than 64 included, with no
// cap splitting it — on its first member with that member's seed, and
// once per class for each unshared job; every member gets the group's
// profile and an OnExec call.
func TestExecutionChunks(t *testing.T) {
	for trial, st := range shareTrials() {
		cfg := st.cfg
		for _, workers := range []int{1, 4, 8} {
			cfg.Workers = workers
			var calls, onExecs atomic.Int64 // bumped from concurrent cells
			cfg.OnExec = func(i, class int, e Exec) {
				onExecs.Add(1)
				if e.Cycles != st.cycles(i, class) {
					t.Errorf("OnExec job %d class %d: %d cycles, want %d", i, class, e.Cycles, st.cycles(i, class))
				}
			}
			got, err := Execute(cfg, st.jobs, func(i, class int, seed int64) (Exec, error) {
				calls.Add(1)
				if b := st.jobs[i].Batch; b != 0 && st.first[b] != i {
					t.Errorf("group %d ran job %d, not its first member %d", b, i, st.first[b])
				}
				if ws := rng.Derive(cfg.Seed, streamJob, uint64(i)); seed != ws {
					t.Errorf("job %d ran with seed %d, want %d", i, seed, ws)
				}
				return Exec{Cycles: st.cycles(i, class)}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if c, wc := calls.Load(), int64(cfg.Classes*(len(st.first)+st.unshared)); c != wc {
				t.Errorf("trial %d workers=%d: %d runner calls, want %d", trial, workers, c, wc)
			}
			if c, wc := onExecs.Load(), int64(cfg.Classes*len(st.jobs)); c != wc {
				t.Errorf("trial %d workers=%d: %d OnExec calls, want %d", trial, workers, c, wc)
			}
			for i := range st.jobs {
				for class := range cfg.Classes {
					if c := got[class][i].Cycles; c != st.cycles(i, class) {
						t.Fatalf("trial %d workers=%d: job %d class %d has %d cycles, want %d", trial, workers, i, class, c, st.cycles(i, class))
					}
				}
			}
		}
	}
}

// TestExecuteBatchingMatchesScalar locks the sharing contract: under a
// seed-insensitive runner, the profiles of a tagged run — and its
// replayed trace — equal a run with every Batch cleared, at workers 1,
// 4 and 8, and both replays pass checkTrace.
func TestExecuteBatchingMatchesScalar(t *testing.T) {
	for trial, st := range shareTrials() {
		cfg := st.cfg
		run := func(i, class int, _ int64) (Exec, error) {
			return Exec{Cycles: st.cycles(i, class)}, nil
		}
		want, err := Execute(cfg, st.cleared, run)
		if err != nil {
			t.Fatal(err)
		}
		wtr, err := replay(cfg, st.cleared, want)
		if err != nil {
			t.Fatal(err)
		}
		checkTrace(t, st.cleared, want, wtr)
		for _, workers := range []int{1, 4, 8} {
			cfg.Workers = workers
			got, err := Execute(cfg, st.jobs, run)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers=%d: shared profiles differ from one run per job", trial, workers)
			}
			gtr, err := replay(cfg, st.jobs, got)
			if err != nil {
				t.Fatal(err)
			}
			checkTrace(t, st.jobs, got, gtr)
			if !reflect.DeepEqual(gtr, wtr) {
				t.Fatalf("trial %d workers=%d: shared replay differs from one run per job", trial, workers)
			}
		}
	}
}

// TestExecuteBatchErrors checks that a shared session's runner error is
// wrapped with the group's first member's index and label.
func TestExecuteBatchErrors(t *testing.T) {
	sentinel := errors.New("boom")
	for trial, st := range shareTrials() {
		_, err := Execute(st.cfg, st.jobs, func(i, _ int, _ int64) (Exec, error) {
			if st.jobs[i].Batch == 1 {
				return Exec{}, sentinel
			}
			return Exec{Cycles: 1}, nil
		})
		if name := fmt.Sprintf("job %d (%s)", st.first[1], st.jobs[st.first[1]].Label); !errors.Is(err, sentinel) || !strings.Contains(err.Error(), name) {
			t.Fatalf("trial %d: shared runner error %v does not wrap the sentinel with %q", trial, err, name)
		}
	}
}
