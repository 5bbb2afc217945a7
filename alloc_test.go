//go:build !race

package protean

import (
	"testing"

	"protean/internal/cluster"
)

// TestResolveAssembleAllocs pins the fleet bookkeeping at tables sized
// once: resolving a scenario, and replaying it into a FleetResult that
// assemble completes, each allocate the same number of objects whether
// the fleet has 1 node or 1024 and the job spec expands to 1 job or 768.
func TestResolveAssembleAllocs(t *testing.T) {
	type counts struct{ resolve, replay float64 }
	measure := func(nodes, jobs int) counts {
		sc := Scenario{
			Seed:      1,
			Nodes:     []NodeSpec{{Count: nodes, StoreSlots: 2, Session: SessionSpec{Scale: 800}}},
			Arrivals:  ArrivalSpec{Process: ArrivalPoisson, MeanGap: 2000},
			Placement: PlacementSpec{Policy: "config-affinity"},
			Jobs:      []JobSpec{{Workload: "alpha/gate", Instances: 2, Items: 100, Count: jobs}},
		}
		var c counts
		c.resolve = testing.AllocsPerRun(20, func() {
			if _, err := sc.resolve(startConfig{}); err != nil {
				t.Fatal(err)
			}
		})
		rs, err := sc.resolve(startConfig{})
		if err != nil {
			t.Fatal(err)
		}
		execs := [][]cluster.Exec{make([]cluster.Exec, len(rs.jobs))}
		results := [][]*Result{make([]*Result, len(rs.jobs))}
		for i := range execs[0] {
			execs[0][i].Cycles = 5000
			results[0][i] = &Result{Cycles: 5000}
		}
		c.replay = testing.AllocsPerRun(20, func() {
			if _, err := rs.replay(rs.policies[0], execs, results); err != nil {
				t.Fatal(err)
			}
		})
		return c
	}
	want := measure(1, 1)
	for _, shape := range [][2]int{{1, 768}, {1024, 1}, {1024, 768}} {
		if got := measure(shape[0], shape[1]); got != want {
			t.Errorf("%d nodes, %d jobs: allocs %+v, want %+v as for 1 node and 1 job",
				shape[0], shape[1], got, want)
		}
	}
}
