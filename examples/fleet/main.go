// Example fleet simulates a cluster of ProteanARM workstations behind a
// job dispatcher and shows why placement should care about configuration
// locality: the same heterogeneous job stream runs once under round-robin
// placement and once under config-affinity placement, and the affinity
// fleet fetches far fewer bitstreams into its node stores — the paper's
// Figure-2 cost (configuration loads under thrashing), avoided one layer
// up by sending jobs where their circuits already are.
package main

import (
	"context"
	"fmt"
	"log"

	"protean"
)

// runFleets executes the standard job stream once and replays placement
// under round-robin and config-affinity — a paired comparison on
// identical simulations.
func runFleets() (rr, aff *protean.FleetResult, err error) {
	sc := protean.Scenario{
		Seed: 7,
		Nodes: []protean.NodeSpec{{
			Count: 4,
			// Tight stores — two configurations per node against four in
			// the mix — so locality is scarce and placement decides who
			// thrashes.
			StoreSlots: 2,
			Session: protean.SessionSpec{
				Scale:   400,
				Quantum: protean.Quantum1ms / 400,
			},
		}},
		// Open-loop arrivals: jobs trickle in with deterministic
		// exponential gaps instead of all being present at cycle 0.
		Arrivals: protean.ArrivalSpec{Process: protean.ArrivalPoisson, MeanGap: 40_000},
	}
	// A dozen jobs rotating through the paper's three applications: alpha
	// and twofish carry one circuit each, echo two — four distinct
	// configurations fleet-wide.
	rotation := []string{"alpha/hw-nosoft", "twofish/hw-nosoft", "echo/hw-nosoft"}
	for i := 0; i < 12; i++ {
		sc.Jobs = append(sc.Jobs, protean.JobSpec{Workload: rotation[i%len(rotation)], Instances: 2})
	}
	r, err := protean.Start(context.Background(), sc,
		protean.WithRunPlacements(protean.PlaceRoundRobin, protean.PlaceAffinity))
	if err != nil {
		return nil, nil, err
	}
	frs, err := r.WaitAll()
	if err != nil {
		return nil, nil, err
	}
	for _, fr := range frs {
		if err := fr.Err(); err != nil {
			return nil, nil, err
		}
	}
	return frs[0], frs[1], nil
}

func main() {
	rr, aff, err := runFleets()
	if err != nil {
		log.Fatal(err)
	}

	report := func(fr *protean.FleetResult) {
		fmt.Printf("%-16s makespan=%-10d config-loads=%-4d (%d in-session + %d cold fetches, %d warm hits)\n",
			fr.Policy, fr.Makespan, fr.ConfigLoads(), fr.CIS.Loads, fr.ColdLoads, fr.WarmHits)
		for _, n := range fr.Nodes {
			fmt.Printf("  node %d: %d jobs, %d cold loads, %d warm hits\n",
				n.Node, n.Jobs, n.ColdLoads, n.WarmHits)
		}
	}
	report(rr)
	report(aff)

	if aff.ColdLoads >= rr.ColdLoads {
		log.Fatalf("affinity placement did not reduce cold loads: %d vs %d",
			aff.ColdLoads, rr.ColdLoads)
	}
	saved := rr.ConfigLoads() - aff.ConfigLoads()
	fmt.Printf("\nconfig-affinity saved %d configuration loads (%d -> %d) on an identical job stream\n",
		saved, rr.ConfigLoads(), aff.ConfigLoads())
}
