package protean_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"protean"
)

// testScenario is the standard test fleet: a 4-node fleet at a fast
// scale, tight 2-slot stores so placement locality matters, Poisson
// open-loop arrivals, and a thrash-heavy heterogeneous job rotation —
// the three paper applications, 4 distinct circuit configurations.
func testScenario(jobs int) protean.Scenario {
	rotation := []string{"alpha/hw-nosoft", "twofish/hw-nosoft", "echo/hw-nosoft"}
	sc := protean.Scenario{
		Seed: 7,
		Nodes: []protean.NodeSpec{{
			Count:      4,
			StoreSlots: 2,
			Session: protean.SessionSpec{
				Scale:   800,
				Quantum: protean.Quantum1ms / 800,
				Policy:  "round-robin",
			},
		}},
		Arrivals: protean.ArrivalSpec{Process: protean.ArrivalPoisson, MeanGap: 40_000},
	}
	for i := 0; i < jobs; i++ {
		sc.Jobs = append(sc.Jobs, protean.JobSpec{Workload: rotation[i%len(rotation)], Instances: 2})
	}
	return sc
}

// TestScenarioRoundTrip pins the serialization inverse:
// LoadScenario(MarshalJSON(sc)) must reproduce the scenario exactly.
func TestScenarioRoundTrip(t *testing.T) {
	sc := testScenario(6)
	sc.Workers = 2
	sc.Admission = protean.AdmissionSpec{Bound: 3, Policy: protean.AdmissionShed}
	sc.Placement = protean.PlacementSpec{Policy: "weighted-affinity", Weight: 123_456}
	sc.Nodes = append(sc.Nodes, protean.NodeSpec{ClockScale: 2, Session: protean.SessionSpec{
		Scale: 800, PFUs: 2, SoftDispatch: true, MaxFaults: 10,
		Costs: protean.CostModel{ContextSwitch: 1, FaultEntry: 1, SyscallEntry: 1, MapInstall: 1, ScheduleDecision: 1},
	}})

	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := protean.LoadScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sc) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", got, sc)
	}

	// Trace arrivals round-trip their times.
	tr := testScenario(3)
	tr.Arrivals = protean.ArrivalSpec{Process: protean.ArrivalTrace, Times: []uint64{0, 10, 10}}
	data, err = json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err = protean.LoadScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("trace round trip drifted: %+v", got)
	}
}

// TestScenarioGolden keeps the checked-in spec files honest: each must
// load, validate, and re-marshal to exactly its own bytes, so any schema
// drift shows up as a diff against testdata/.
func TestScenarioGolden(t *testing.T) {
	files, err := filepath.Glob("testdata/scenario_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("expected at least 2 golden scenario specs, found %v", files)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := protean.LoadScenario(data)
			if err != nil {
				t.Fatal(err)
			}
			out, err := json.MarshalIndent(sc, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, '\n')
			if !bytes.Equal(out, data) {
				t.Errorf("golden drift: re-marshaling %s changes it.\nGot:\n%s\nWant:\n%s", file, out, data)
			}
		})
	}
}

// TestSessionSpecCaps checks that MaxPFUs and MaxTLB1Entries bound both
// entry points: the options New takes and the spec LoadScenario reads.
// Each cap is accepted and one past it is rejected. LoadScenario, which
// validates without building a session, also rejects the int32 maximum
// a hostile spec might send.
func TestSessionSpecCaps(t *testing.T) {
	for _, c := range []struct {
		field string
		cap   int
		opt   func(int) protean.Option
	}{
		{"pfus", protean.MaxPFUs, protean.WithPFUs},
		{"tlb1_entries", protean.MaxTLB1Entries, protean.WithTLB1Entries},
	} {
		for _, n := range []int{c.cap, c.cap + 1, math.MaxInt32} {
			ok := n <= c.cap
			if n <= c.cap+1 {
				s, err := protean.New(c.opt(n))
				if (err == nil) != ok {
					t.Errorf("New with %s %d: err %v, want accepted %v", c.field, n, err, ok)
				}
				if err == nil && c.field == "pfus" && s.NumPFUs() != n {
					t.Errorf("New with %d PFUs has %d", n, s.NumPFUs())
				}
			}
			spec := fmt.Sprintf(`{"nodes":[{"session":{%q:%d}}],"jobs":[{"workload":"echo","items":4}]}`, c.field, n)
			if _, err := protean.LoadScenario([]byte(spec)); (err == nil) != ok {
				t.Errorf("LoadScenario %s: err %v, want accepted %v", spec, err, ok)
			}
		}
	}
}

// TestScenarioValidation exercises the rejection surface: structurally
// broken specs must fail at load/validate time, before any simulation.
func TestScenarioValidation(t *testing.T) {
	mutate := func(f func(*protean.Scenario)) protean.Scenario {
		sc := testScenario(3)
		f(&sc)
		return sc
	}
	cases := map[string]protean.Scenario{
		"zero nodes":           mutate(func(sc *protean.Scenario) { sc.Nodes = nil }),
		"negative node count":  mutate(func(sc *protean.Scenario) { sc.Nodes[0].Count = -1 }),
		"negative store slots": mutate(func(sc *protean.Scenario) { sc.Nodes[0].StoreSlots = -2 }),
		"negative clock scale": mutate(func(sc *protean.Scenario) { sc.Nodes[0].ClockScale = -1 }),
		"bad session policy":   mutate(func(sc *protean.Scenario) { sc.Nodes[0].Session.Policy = "fifo" }),
		"negative PFUs":        mutate(func(sc *protean.Scenario) { sc.Nodes[0].Session.PFUs = -4 }),
		"negative scale":       mutate(func(sc *protean.Scenario) { sc.Nodes[0].Session.Scale = -5 }),
		"unknown placement":    mutate(func(sc *protean.Scenario) { sc.Placement.Policy = "gravity" }),
		"weight on non-hybrid": mutate(func(sc *protean.Scenario) { sc.Placement = protean.PlacementSpec{Policy: "random", Weight: 5} }),
		"negative queue bound": mutate(func(sc *protean.Scenario) { sc.Admission.Bound = -1 }),
		"admission w/o bound":  mutate(func(sc *protean.Scenario) { sc.Admission = protean.AdmissionSpec{Policy: protean.AdmissionShed} }),
		"bad admission policy": mutate(func(sc *protean.Scenario) { sc.Admission = protean.AdmissionSpec{Bound: 1, Policy: "drop"} }),
		"unknown arrivals":     mutate(func(sc *protean.Scenario) { sc.Arrivals.Process = "bursty" }),
		"negative lanes":       mutate(func(sc *protean.Scenario) { sc.Lanes = -1 }),
		"lanes over 64":        mutate(func(sc *protean.Scenario) { sc.Lanes = 65 }),
		"lanes 2":              mutate(func(sc *protean.Scenario) { sc.Lanes = 2 }),
		"retired uniform process": mutate(func(sc *protean.Scenario) {
			sc.Arrivals = protean.ArrivalSpec{Process: "uniform", MeanGap: 40_000}
		}),
		"batch with gap": mutate(func(sc *protean.Scenario) { sc.Arrivals = protean.ArrivalSpec{MeanGap: 100} }),
		"short trace": mutate(func(sc *protean.Scenario) {
			sc.Arrivals = protean.ArrivalSpec{Process: protean.ArrivalTrace, Times: []uint64{0}}
		}),
		"decreasing trace": mutate(func(sc *protean.Scenario) {
			sc.Arrivals = protean.ArrivalSpec{Process: protean.ArrivalTrace, Times: []uint64{9, 3, 12}}
		}),
		"overflowing trace": mutate(func(sc *protean.Scenario) {
			sc.Arrivals = protean.ArrivalSpec{Process: protean.ArrivalTrace, Times: []uint64{0, 1 << 62, 1<<64 - 2}}
		}),
		"runaway node count": mutate(func(sc *protean.Scenario) { sc.Nodes[0].Count = 2_000_000_000 }),
		"runaway job count":  mutate(func(sc *protean.Scenario) { sc.Jobs[0].Count = 2_000_000_000 }),
		"no jobs":            mutate(func(sc *protean.Scenario) { sc.Jobs = nil }),
		"unknown workload":   mutate(func(sc *protean.Scenario) { sc.Jobs[0].Workload = "fft" }),
		"negative instances": mutate(func(sc *protean.Scenario) { sc.Jobs[0].Instances = -1 }),
		"negative items":     mutate(func(sc *protean.Scenario) { sc.Jobs[0].Items = -7 }),
		"negative job count": mutate(func(sc *protean.Scenario) { sc.Jobs[0].Count = -1 }),
		"huge open-loop gap": mutate(func(sc *protean.Scenario) { sc.Arrivals.MeanGap = 1 << 60 }),
		"poisson w/o gap":    mutate(func(sc *protean.Scenario) { sc.Arrivals = protean.ArrivalSpec{Process: protean.ArrivalPoisson} }),
		"trace with gap": mutate(func(sc *protean.Scenario) {
			sc.Arrivals = protean.ArrivalSpec{Process: protean.ArrivalTrace, MeanGap: 5, Times: []uint64{0, 1, 2}}
		}),
		"negative TLB1 size": mutate(func(sc *protean.Scenario) { sc.Nodes[0].Session.TLB1Entries = -1 }),
		"PFUs over cap":      mutate(func(sc *protean.Scenario) { sc.Nodes[0].Session.PFUs = protean.MaxPFUs + 1 }),
		"TLB1 over cap": mutate(func(sc *protean.Scenario) {
			sc.Nodes[0].Session.TLB1Entries = protean.MaxTLB1Entries + 1
		}),
	}
	for name, sc := range cases {
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
		if _, err := json.Marshal(sc); err == nil {
			t.Errorf("%s: marshaled", name)
		}
		if _, err := protean.Start(context.Background(), sc); err == nil {
			t.Errorf("%s: started", name)
		}
	}
	// The retired uniform-jitter process points its users at Poisson.
	if err := cases["retired uniform process"].Validate(); err == nil || !strings.Contains(err.Error(), `"poisson"`) {
		t.Errorf("uniform arrivals: error %v does not name the poisson process", err)
	}
	// Lanes takes exactly two values, and the error names both.
	for _, name := range []string{"negative lanes", "lanes over 64", "lanes 2"} {
		if err := cases[name].Validate(); err == nil || !strings.Contains(err.Error(), "0 (share identical jobs) or 1 (one session per job)") {
			t.Errorf("%s: error %v does not name lanes 0 and 1", name, err)
		}
	}
	// Unknown JSON fields are typos, not extensions.
	if _, err := protean.LoadScenario([]byte(`{"nodes":[{}],"jobs":[{"workload":"alpha"}],"quantum":5}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	// Trailing content (e.g. a botched merge of two spec objects) is an
	// error, not silently dropped settings.
	if _, err := protean.LoadScenario([]byte(`{"nodes":[{}],"jobs":[{"workload":"alpha"}]}{"seed":9}`)); err == nil {
		t.Error("trailing JSON content accepted")
	}
	// A valid scenario must pass all three gates.
	sc := testScenario(3)
	if err := sc.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestScenarioHeterogeneousNodes checks that node heterogeneity
// measurably moves the FleetResult: a fleet with one double-clock node
// beats the all-reference fleet's makespan, and a starved single-PFU
// node class loads more configurations than the stock machine.
func TestScenarioHeterogeneousNodes(t *testing.T) {
	base := testScenario(6)
	base.Placement = protean.PlacementSpec{Policy: "least-loaded"}
	slow, err := protean.RunScenario(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	fast := testScenario(6)
	fast.Placement = protean.PlacementSpec{Policy: "least-loaded"}
	fast.Nodes[0].Count = 3
	fast.Nodes = append(fast.Nodes, protean.NodeSpec{
		ClockScale: 4,
		StoreSlots: 2,
		Session:    fast.Nodes[0].Session,
	})
	frFast, err := protean.RunScenario(context.Background(), fast)
	if err != nil {
		t.Fatal(err)
	}
	if err := frFast.Err(); err != nil {
		t.Fatal(err)
	}
	if frFast.Makespan >= slow.Makespan {
		t.Errorf("double-clock node did not improve makespan: %d vs %d", frFast.Makespan, slow.Makespan)
	}
	if got := frFast.Nodes[3]; got.ClockScale != 4 || got.Class != 0 {
		t.Errorf("fast node metadata lost: %+v", got)
	}

	// A second node class with 1 PFU must thrash harder on the same jobs:
	// its class sessions reload circuits the 4-PFU class keeps resident.
	starved := testScenario(3)
	starved.Nodes[0].Count = 1
	starved.Nodes = append(starved.Nodes, protean.NodeSpec{
		StoreSlots: 2,
		Session: protean.SessionSpec{
			Scale:   800,
			Quantum: protean.Quantum1ms / 800,
			Policy:  "round-robin",
			PFUs:    1,
		},
	})
	// Round-robin alternates node 0 (4 PFUs) and node 1 (1 PFU); the same
	// job stream must cost the starved class more session loads.
	frMixed, err := protean.RunScenario(context.Background(), starved)
	if err != nil {
		t.Fatal(err)
	}
	if err := frMixed.Err(); err != nil {
		t.Fatal(err)
	}
	var loads4, loads1 uint64
	for _, j := range frMixed.Jobs {
		switch frMixed.Nodes[j.Node].Class {
		case 0:
			loads4 += j.Run.CIS.Loads
		case 1:
			loads1 += j.Run.CIS.Loads
		}
	}
	if loads1 <= loads4 {
		t.Errorf("1-PFU class loads (%d) not above 4-PFU class loads (%d)", loads1, loads4)
	}
}

// TestScenarioPoissonArrivals checks the open-loop arrival process end to
// end: Poisson arrivals change the fleet timeline against batch arrivals,
// leave the per-session statistics untouched, and stay byte-identical
// across worker counts (the rng.Exp determinism contract at fleet scale).
func TestScenarioPoissonArrivals(t *testing.T) {
	poisson := protean.ArrivalSpec{Process: protean.ArrivalPoisson, MeanGap: 40_000}
	run := func(arrivals protean.ArrivalSpec, workers int) *protean.FleetResult {
		sc := testScenario(9)
		sc.Workers = workers
		sc.Arrivals = arrivals
		fr := runFleet(t, sc)
		if err := fr.Err(); err != nil {
			t.Fatal(err)
		}
		return fr
	}
	batch := run(protean.ArrivalSpec{}, 1)
	poi := run(poisson, 1)
	if reflect.DeepEqual(batch.Jobs, poi.Jobs) {
		t.Error("poisson arrivals indistinguishable from batch arrivals")
	}
	if batch.CIS != poi.CIS {
		t.Errorf("arrival process changed session statistics: %+v vs %+v", batch.CIS, poi.CIS)
	}
	ref := mustJSON(t, poi)
	for _, workers := range []int{4, 8} {
		if got := mustJSON(t, run(poisson, workers)); !bytes.Equal(got, ref) {
			t.Errorf("poisson fleet JSON differs at workers=%d", workers)
		}
	}
}

// TestScenarioTraceArrivals replays an explicit arrival trace and checks
// the jobs inherit exactly those arrival cycles.
func TestScenarioTraceArrivals(t *testing.T) {
	times := []uint64{0, 0, 50_000, 300_000, 300_000, 1_000_000}
	sc := testScenario(6)
	sc.Arrivals = protean.ArrivalSpec{Process: protean.ArrivalTrace, Times: times}
	fr, err := protean.RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range fr.Jobs {
		if j.Arrival != times[i] {
			t.Errorf("job %d arrived at %d, trace says %d", i, j.Arrival, times[i])
		}
	}
}

// TestScenarioAdmission checks the admission controller end to end:
// bounded queues shed or defer jobs, both outcomes are visible in the
// FleetResult, and the latency distribution covers exactly the admitted
// jobs.
func TestScenarioAdmission(t *testing.T) {
	base := testScenario(12)
	// Batch arrivals slam every job into the fleet at cycle 0, so a
	// 1-deep bound must reject jobs beyond the first wave.
	base.Arrivals = protean.ArrivalSpec{}

	open, err := protean.RunScenario(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if open.Shed != 0 || open.Deferred != 0 || open.Latency.Jobs != 12 {
		t.Fatalf("unbounded run shed=%d deferred=%d latencyJobs=%d", open.Shed, open.Deferred, open.Latency.Jobs)
	}

	shed := base
	shed.Admission = protean.AdmissionSpec{Bound: 1, Policy: protean.AdmissionShed}
	frShed, err := protean.RunScenario(context.Background(), shed)
	if err != nil {
		t.Fatal(err)
	}
	if frShed.Shed != 8 { // 4 nodes × bound 1 admitted from the batch
		t.Errorf("shed = %d, want 8", frShed.Shed)
	}
	if frShed.Latency.Jobs != 4 {
		t.Errorf("latency sample = %d, want the 4 admitted jobs", frShed.Latency.Jobs)
	}
	for _, j := range frShed.Jobs {
		if j.Shed && (j.Run != nil || j.Node != -1 || j.Latency != 0) {
			t.Errorf("shed job %d carries run state: %+v", j.ID, j)
		}
	}
	if err := frShed.Err(); err != nil {
		t.Errorf("shed jobs are not failures: %v", err)
	}
	if frShed.Makespan >= open.Makespan {
		t.Errorf("shedding did not shorten the makespan: %d vs %d", frShed.Makespan, open.Makespan)
	}
	if frShed.CIS.Loads >= open.CIS.Loads {
		t.Errorf("shed fleet aggregates as much session work as the open one")
	}

	deferred := base
	deferred.Admission = protean.AdmissionSpec{Bound: 1, Policy: protean.AdmissionDefer}
	frDefer, err := protean.RunScenario(context.Background(), deferred)
	if err != nil {
		t.Fatal(err)
	}
	if frDefer.Shed != 0 || frDefer.Deferred != 8 || frDefer.DeferCycles == 0 {
		t.Errorf("defer run shed=%d deferred=%d deferCycles=%d", frDefer.Shed, frDefer.Deferred, frDefer.DeferCycles)
	}
	if frDefer.Latency.Jobs != 12 {
		t.Errorf("defer latency sample = %d, want 12", frDefer.Latency.Jobs)
	}
	if err := frDefer.Err(); err != nil {
		t.Fatal(err)
	}
	// Percentile ordering is a structural invariant of the sample.
	for _, l := range []protean.LatencyStats{open.Latency, frShed.Latency, frDefer.Latency} {
		if l.P50 > l.P95 || l.P95 > l.P99 || l.P99 > l.Max || l.Mean == 0 {
			t.Errorf("latency stats disordered: %+v", l)
		}
	}
	// Queueing must dominate tail latency: the batch pile-up's worst
	// sojourn far exceeds a wide-open-loop fleet's.
	relaxed := testScenario(12)
	relaxed.Arrivals = protean.ArrivalSpec{Process: protean.ArrivalPoisson, MeanGap: 4_000_000}
	frRelaxed, err := protean.RunScenario(context.Background(), relaxed)
	if err != nil {
		t.Fatal(err)
	}
	if frRelaxed.Latency.Max >= open.Latency.Max {
		t.Errorf("relaxed arrivals tail %d not below batch pile-up tail %d",
			frRelaxed.Latency.Max, open.Latency.Max)
	}
}

// TestScenarioWeightedAffinityHybrid is the hybrid-policy regression: on
// the k-kind rotation over n > k nodes, pure config-affinity pins each
// circuit kind to one node and idles the spare, while round-robin stays
// oblivious to locality. The weighted hybrid must beat affinity on
// makespan and round-robin on configuration loads — on one identical,
// paired job stream (WithRunPlacements replays policies over the same
// executions).
func TestScenarioWeightedAffinityHybrid(t *testing.T) {
	// 3 circuit kinds (alpha, twofish, echo at 1+1+2 configurations) on a
	// 4-node fleet: n > k, so pure affinity concentrates on 3 nodes.
	r, err := protean.Start(context.Background(), testScenario(12), protean.WithRunPlacements(
		protean.PlaceRoundRobin, protean.PlaceAffinity, protean.PlaceWeightedAffinity(0)))
	if err != nil {
		t.Fatal(err)
	}
	frs, err := r.WaitAll()
	if err != nil {
		t.Fatal(err)
	}
	rr, aff, wa := frs[0], frs[1], frs[2]
	usedNodes := func(fr *protean.FleetResult) int {
		used := 0
		for _, n := range fr.Nodes {
			if n.Jobs > 0 {
				used++
			}
		}
		return used
	}
	if got := usedNodes(aff); got == len(aff.Nodes) {
		t.Fatalf("premise broken: pure affinity used all %d nodes", got)
	}
	if wa.Makespan >= aff.Makespan {
		t.Errorf("hybrid makespan %d not below pure affinity %d", wa.Makespan, aff.Makespan)
	}
	if wa.ConfigLoads() >= rr.ConfigLoads() {
		t.Errorf("hybrid config loads %d not below round-robin %d", wa.ConfigLoads(), rr.ConfigLoads())
	}
	t.Logf("makespan rr=%d aff=%d hybrid=%d; config loads rr=%d aff=%d hybrid=%d (nodes used: %d/%d/%d)",
		rr.Makespan, aff.Makespan, wa.Makespan,
		rr.ConfigLoads(), aff.ConfigLoads(), wa.ConfigLoads(),
		usedNodes(rr), usedNodes(aff), usedNodes(wa))
}

// TestStartRunner exercises the Start/Wait surface directly: a started
// runner delivers its result to any number of Wait calls, and
// WithRunPlacements returns one FleetResult per policy.
func TestStartRunner(t *testing.T) {
	sc := testScenario(4)
	r, err := protean.Start(context.Background(), sc,
		protean.WithRunPlacements(protean.PlaceRoundRobin, protean.PlaceAffinity))
	if err != nil {
		t.Fatal(err)
	}
	frs, err := r.WaitAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(frs) != 2 || frs[0].Policy != "round-robin" || frs[1].Policy != "config-affinity" {
		t.Fatalf("WaitAll = %d results (%s, %s)", len(frs), frs[0].Policy, frs[1].Policy)
	}
	fr, err := r.Wait()
	if err != nil || fr != frs[0] {
		t.Errorf("Wait did not return the first result (err=%v)", err)
	}
	// Cancellation propagates out of Wait.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err = protean.Start(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Wait(); err == nil {
		t.Error("cancelled scenario run succeeded")
	}
}
