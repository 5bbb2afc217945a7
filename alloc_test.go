//go:build !race

package protean

import (
	"context"
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

// TestProgressSinkAllocs pins the progress path at a constant cost per
// fleet: one share-group fleet run with a no-op sink allocates at most
// a few objects more than the same fleet with none (the fleet-done
// line), however many job events the group fires.
func TestProgressSinkAllocs(t *testing.T) {
	const bound = 8
	sink := SinkFunc(func(Event) {})
	for _, jobs := range []int{8, 128} {
		sc := Scenario{
			Seed:  1,
			Nodes: []NodeSpec{{Count: 2, Session: SessionSpec{Scale: 800}}},
			Jobs:  []JobSpec{{Workload: "echo/hw-nosoft", Count: jobs}},
		}
		run := func(opts ...StartOption) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := RunScenario(context.Background(), sc, opts...); err != nil {
					t.Fatal(err)
				}
			})
		}
		with, without := run(WithRunProgress(sink)), run()
		t.Logf("%d jobs: %v allocs with a sink, %v without", jobs, with, without)
		if with-without > bound {
			t.Errorf("%d jobs: a no-op sink costs %v allocations, want at most %d", jobs, with-without, bound)
		}
	}
}
