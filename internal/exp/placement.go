package exp

import (
	"context"
	"fmt"

	"protean"
	"protean/internal/workload"
)

// placementNodeCounts is the fleet-size axis of the placement sweep.
var placementNodeCounts = []int{1, 2, 3, 4, 6, 8}

// placementJobs is the thrash-heavy job stream: enough rotating
// heterogeneous jobs that node bitstream stores (deliberately small, 2
// slots against 4 distinct circuits in the mix) keep evicting unless
// placement is configuration-aware.
const placementJobs = 12

// placementRotation cycles the paper's three applications, giving the
// fleet 4 distinct circuit configurations (alpha 1, twofish 1, echo 2).
var placementRotation = []workload.Kind{workload.Alpha, workload.Twofish, workload.Echo}

// RunFleet runs one placement-sweep cell: the standard job stream on a
// fleet of the given size, executed once (on sw.Workers job workers) and
// replayed under each of the given policies (protean.WithRunPlacements),
// so policy comparisons are paired by construction — identical seeds,
// arrivals and session work; only the dispatcher differs. Exported for
// the cluster benchmark. Results are worker-count independent.
func (sw Sweeper) RunFleet(nodes int, pols ...protean.PlacementPolicy) ([]*protean.FleetResult, error) {
	sc := protean.Scenario{
		Seed:    sw.CellSeed(uint64(nodes)),
		Workers: sw.Workers,
		Nodes: []protean.NodeSpec{{
			Count:      nodes,
			StoreSlots: 2,
			Session: protean.SessionSpec{
				Scale:   sw.Scale.Factor,
				Quantum: sw.Scale.Quantum(Quantum1ms),
			},
		}},
		Arrivals: protean.ArrivalSpec{
			Process: protean.ArrivalPoisson,
			MeanGap: uint64(sw.Scale.Quantum(Quantum10ms)) * 4,
		},
	}
	for i := 0; i < placementJobs; i++ {
		kind := placementRotation[i%len(placementRotation)]
		sc.Jobs = append(sc.Jobs, protean.JobSpec{
			Workload:  workloadName(kind, workload.ModeHWOnly),
			Instances: 2,
		})
	}
	r, err := protean.Start(context.Background(), sc, protean.WithRunPlacements(pols...))
	if err != nil {
		return nil, err
	}
	frs, err := r.WaitAll()
	if err != nil {
		return nil, err
	}
	for _, fr := range frs {
		if err := fr.Err(); err != nil {
			return nil, err
		}
	}
	return frs, nil
}

// PlacementSweep (F1, the fleet figure) sweeps node count × placement
// policy over the thrash-heavy job stream and reports two figures:
// makespan and total configuration loads (in-session CIS loads plus cold
// bitstream fetches into node stores). It is the Figure-2 story lifted to
// fleet scale: configuration locality as a placement problem.
func (sw Sweeper) PlacementSweep() (makespan, loads *Figure, err error) {
	policies := protean.Placements()
	type cellOut struct{ makespan, loads uint64 }
	// One sweep cell per node count: the job sessions execute once there
	// and all four policies are replayed over the same executions.
	// Cells already occupy the sweep worker pool, so each cell's fleet
	// runs its jobs serially — the pools must not multiply.
	cellSw := sw
	cellSw.Workers = 1
	var cells []func() ([]cellOut, error)
	for _, nodes := range placementNodeCounts {
		cells = append(cells, func() ([]cellOut, error) {
			frs, err := cellSw.RunFleet(nodes, policies...)
			if err != nil {
				return nil, fmt.Errorf("F1 nodes=%d: %w", nodes, err)
			}
			outs := make([]cellOut, len(frs))
			for pi, fr := range frs {
				outs[pi] = cellOut{makespan: fr.Makespan, loads: fr.ConfigLoads()}
				sw.emit(fmt.Sprintf("F1 %s nodes=%d", fr.Policy, nodes), fr.Makespan,
					"F1 %-16s nodes=%d  makespan=%-12d config-loads=%d (%d cold)",
					fr.Policy, nodes, fr.Makespan, fr.ConfigLoads(), fr.ColdLoads)
			}
			return outs, nil
		})
	}
	byNodes, err := Sweep(sw.Workers, cells)
	if err != nil {
		return nil, nil, err
	}
	makespan = &Figure{
		Title:  "F1: fleet makespan vs nodes x placement policy",
		XLabel: "No. fleet nodes",
		YLabel: "Makespan in clock cycles",
	}
	loads = &Figure{
		Title:  "F1: total configuration loads vs nodes x placement policy",
		XLabel: "No. fleet nodes",
		YLabel: "Configuration loads (session + cold fetches)",
	}
	for pi, pol := range policies {
		ms := Series{Label: pol.Name()}
		ls := Series{Label: pol.Name()}
		for ni, nodes := range placementNodeCounts {
			out := byNodes[ni][pi]
			ms.X = append(ms.X, nodes)
			ms.Y = append(ms.Y, out.makespan)
			ls.X = append(ls.X, nodes)
			ls.Y = append(ls.Y, out.loads)
		}
		makespan.Series = append(makespan.Series, ms)
		loads.Series = append(loads.Series, ls)
	}
	return makespan, loads, nil
}
