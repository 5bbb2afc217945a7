package protean_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"protean"
)

// checkFleet is the invariant oracle for a FleetResult: it recomputes
// every aggregate the fleet layer reports from the per-job rows and
// checks the laws the dispatcher must keep.
//   - Jobs are in submission order; a shed job sits on node -1 and
//     carries no timeline, store traffic or session.
//   - Each node serves FIFO: in placement (submission) order, a job
//     starts no earlier than its arrival plus its deferral, and no
//     earlier than the node's previous job completed.
//   - Completion − Start is the job's fetches plus its session cycles at
//     the node's clock (ceiling division), and Latency is
//     Completion − Arrival.
//   - Per node: Jobs, Busy = Σ(Completion − Start), the cold, warm and
//     fetch totals, and Completion = its last job's.
//   - Fleet: Busy = Σ node Busy, the cold, warm, fetch, shed, deferred
//     and defer-cycle totals, admitted + Shed = jobs with Σ node Jobs =
//     admitted, Makespan = max Completion, the CIS, kernel and RFU
//     counters summed over admitted sessions, ConfigLoads = the summed
//     CIS loads + the summed cold loads, and LatencyStats recomputed
//     from the jobs.
func checkFleet(fr *protean.FleetResult) error {
	nodes := make([]protean.NodeResult, len(fr.Nodes))
	for n, nr := range fr.Nodes {
		if nr.Node != n {
			return fmt.Errorf("node row %d reports node %d", n, nr.Node)
		}
		if nr.ClockScale < 1 {
			return fmt.Errorf("node %d has clock scale %d", n, nr.ClockScale)
		}
		nodes[n] = protean.NodeResult{Node: n, Class: nr.Class, ClockScale: nr.ClockScale}
	}
	var fleet protean.FleetResult
	var lats []uint64
	for i, j := range fr.Jobs {
		if j.ID != i {
			return fmt.Errorf("job row %d reports id %d", i, j.ID)
		}
		if j.Shed {
			if j.Node != -1 || j.Start != 0 || j.Completion != 0 || j.Latency != 0 ||
				j.ColdLoads != 0 || j.WarmHits != 0 || j.FetchCycles != 0 ||
				j.Deferred || j.DeferCycles != 0 || j.Run != nil {
				return fmt.Errorf("shed job %d carries placement state: %+v", i, j)
			}
			fleet.Shed++
			continue
		}
		if j.Node < 0 || j.Node >= len(nodes) {
			return fmt.Errorf("job %d placed on node %d of %d", i, j.Node, len(nodes))
		}
		if j.Run == nil {
			return fmt.Errorf("admitted job %d has no session result", i)
		}
		if j.Deferred != (j.DeferCycles > 0) {
			return fmt.Errorf("job %d: deferred %v with %d defer cycles", i, j.Deferred, j.DeferCycles)
		}
		nr := &nodes[j.Node]
		if j.Start < j.Arrival+j.DeferCycles {
			return fmt.Errorf("job %d starts at %d before arrival %d + deferral %d", i, j.Start, j.Arrival, j.DeferCycles)
		}
		if j.Start < nr.Completion {
			return fmt.Errorf("job %d starts at %d on node %d, busy until %d", i, j.Start, j.Node, nr.Completion)
		}
		clock := uint64(nr.ClockScale)
		service := (j.Run.Cycles + clock - 1) / clock
		if j.Completion < j.Start || j.Completion-j.Start != j.FetchCycles+service {
			return fmt.Errorf("job %d: completion %d − start %d ≠ fetch %d + service %d", i, j.Completion, j.Start, j.FetchCycles, service)
		}
		if j.Latency != j.Completion-j.Arrival {
			return fmt.Errorf("job %d: latency %d ≠ completion %d − arrival %d", i, j.Latency, j.Completion, j.Arrival)
		}
		nr.Jobs++
		nr.Busy += j.Completion - j.Start
		nr.ColdLoads += j.ColdLoads
		nr.WarmHits += j.WarmHits
		nr.FetchCycles += j.FetchCycles
		nr.Completion = j.Completion
		fleet.ColdLoads += j.ColdLoads
		fleet.WarmHits += j.WarmHits
		fleet.FetchCycles += j.FetchCycles
		fleet.Makespan = max(fleet.Makespan, j.Completion)
		if j.Deferred {
			fleet.Deferred++
			fleet.DeferCycles += j.DeferCycles
		}
		fleet.CIS.Loads += j.Run.CIS.Loads
		fleet.Kernel.KernelCycles += j.Run.Kernel.KernelCycles
		fleet.RFU.ExecCycles += j.Run.RFU.ExecCycles
		lats = append(lats, j.Latency)
	}
	admitted := 0
	for n, nr := range nodes {
		if fr.Nodes[n] != nr {
			return fmt.Errorf("node %d reports %+v, jobs sum to %+v", n, fr.Nodes[n], nr)
		}
		admitted += nr.Jobs
		fleet.Busy += nr.Busy
	}
	if admitted+fleet.Shed != len(fr.Jobs) || admitted != len(lats) {
		return fmt.Errorf("%d admitted on nodes + %d shed ≠ %d jobs (%d admitted rows)", admitted, fleet.Shed, len(fr.Jobs), len(lats))
	}
	type totals struct {
		Busy, ColdLoads, WarmHits, FetchCycles, Makespan, DeferCycles uint64
		Shed, Deferred                                                int
		CISLoads, KernelCycles, ExecCycles                            uint64
	}
	sum := func(r *protean.FleetResult) totals {
		return totals{r.Busy, r.ColdLoads, r.WarmHits, r.FetchCycles, r.Makespan, r.DeferCycles,
			r.Shed, r.Deferred, r.CIS.Loads, r.Kernel.KernelCycles, r.RFU.ExecCycles}
	}
	if got, want := sum(fr), sum(&fleet); got != want {
		return fmt.Errorf("fleet totals %+v, jobs sum to %+v", got, want)
	}
	if got, want := fr.ConfigLoads(), fleet.CIS.Loads+fleet.ColdLoads; got != want {
		return fmt.Errorf("config loads %d, jobs sum to %d CIS + %d cold", got, fleet.CIS.Loads, fleet.ColdLoads)
	}
	var stats protean.LatencyStats
	if len(lats) > 0 {
		slices.Sort(lats)
		var total uint64
		for _, l := range lats {
			total += l
		}
		rank := func(pct int) uint64 { return lats[max((pct*len(lats)+99)/100, 1)-1] }
		stats = protean.LatencyStats{Jobs: len(lats), Mean: total / uint64(len(lats)),
			P50: rank(50), P95: rank(95), P99: rank(99), Max: lats[len(lats)-1]}
	}
	if fr.Latency != stats {
		return fmt.Errorf("latency stats %+v, jobs give %+v", fr.Latency, stats)
	}
	return nil
}

// randomFleetScenario draws a small fleet scenario: one or two node
// classes (the second with half the PFUs and a faster clock), any
// built-in placement policy, no bound or a shed or defer bound, and
// batch, Poisson or trace arrivals over a few job kinds.
func randomFleetScenario(r *rand.Rand) protean.Scenario {
	session := protean.SessionSpec{Scale: 800, Quantum: protean.Quantum1ms / 800}
	sc := protean.Scenario{
		Seed:  r.Int63(),
		Nodes: []protean.NodeSpec{{Count: 1 + r.Intn(5), StoreSlots: r.Intn(3), Session: session}},
	}
	if r.Intn(2) == 0 {
		fast := session
		fast.PFUs = 2
		sc.Nodes = append(sc.Nodes, protean.NodeSpec{Count: 1 + r.Intn(3), StoreSlots: r.Intn(3), ClockScale: 1 + r.Intn(3), Session: fast})
	}
	policies := []string{"round-robin", "random", "least-loaded", "config-affinity", "weighted-affinity"}
	sc.Placement.Policy = policies[r.Intn(len(policies))]
	if sc.Placement.Policy == "weighted-affinity" {
		sc.Placement.Weight = uint64(r.Intn(200_000))
	}
	switch r.Intn(3) {
	case 1:
		sc.Admission = protean.AdmissionSpec{Bound: 1 + r.Intn(3), Policy: protean.AdmissionShed}
	case 2:
		sc.Admission = protean.AdmissionSpec{Bound: 1 + r.Intn(3), Policy: protean.AdmissionDefer}
	}
	workloads := []string{"alpha/hw-nosoft", "twofish/hw-nosoft", "echo/hw-nosoft", "echo/hw"}
	jobs := 0
	for range 1 + r.Intn(4) {
		js := protean.JobSpec{Workload: workloads[r.Intn(len(workloads))], Instances: 1 + r.Intn(2), Items: 10 + r.Intn(30), Count: 1 + r.Intn(8)}
		sc.Jobs = append(sc.Jobs, js)
		jobs += js.Count
	}
	switch r.Intn(3) {
	case 1:
		sc.Arrivals = protean.ArrivalSpec{Process: protean.ArrivalPoisson, MeanGap: uint64(100 + r.Intn(20_000))}
	case 2:
		times := make([]uint64, jobs)
		var t uint64
		for i := range times {
			t += uint64(r.Intn(20_000))
			times[i] = t
		}
		sc.Arrivals = protean.ArrivalSpec{Process: protean.ArrivalTrace, Times: times}
	}
	return sc
}

// TestFleetInvariants runs checkFleet over random scenarios at 1 and 4
// workers, which must also agree byte for byte.
func TestFleetInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := range 60 {
		sc := randomFleetScenario(r)
		var first []byte
		for _, workers := range []int{1, 4} {
			sc.Workers = workers
			fr, err := protean.RunScenario(context.Background(), sc)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := checkFleet(fr); err != nil {
				t.Fatalf("trial %d, workers %d: %v\nscenario: %+v", trial, workers, err, sc)
			}
			js, err := json.Marshal(fr)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = js
			} else if string(js) != string(first) {
				t.Fatalf("trial %d: workers %d result differs from workers 1", trial, workers)
			}
		}
	}
}
