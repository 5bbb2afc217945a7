//go:build ignore

// Regenerates the golden scenario specs under testdata/. Run from the
// repository root after a deliberate schema change:
//
//	go run testdata/gen.go
//
// TestScenarioGolden then pins the files: every spec must load, validate
// and re-marshal to exactly its own bytes.
package main

import (
	"encoding/json"
	"log"
	"os"

	"protean"
)

func main() {
	write("testdata/scenario_uniform.json", homogeneous())
	write("testdata/scenario_hetero.json", hetero())
}

// homogeneous is the one-class spec (written to scenario_uniform.json,
// "uniform" as in a fleet of identical nodes): four tight-store nodes at
// a fast scale, Poisson arrivals, config-affinity placement and the
// paper rotation, one JobSpec per job in submission order.
func homogeneous() protean.Scenario {
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
		Arrivals:  protean.ArrivalSpec{Process: protean.ArrivalPoisson, MeanGap: 40_000},
		Placement: protean.PlacementSpec{Policy: "config-affinity"},
	}
	rotation := []string{"alpha/hw-nosoft", "twofish/hw-nosoft", "echo/hw-nosoft"}
	for i := 0; i < 6; i++ {
		sc.Jobs = append(sc.Jobs, protean.JobSpec{Workload: rotation[i%len(rotation)], Instances: 2})
	}
	return sc
}

// hetero exercises the heterogeneous side of the spec: two node
// classes (one double-clock, small-array outlier), Poisson arrivals,
// a shedding admission bound and the weighted-affinity hybrid.
func hetero() protean.Scenario {
	ref := protean.SessionSpec{
		Scale:   800,
		Quantum: protean.Quantum1ms / 800,
		Policy:  "round-robin",
	}
	small := ref
	small.PFUs = 2
	sc := protean.Scenario{
		Seed: 11,
		Nodes: []protean.NodeSpec{
			{Count: 3, StoreSlots: 2, Session: ref},
			{StoreSlots: 4, ClockScale: 3, Session: small},
		},
		Arrivals:  protean.ArrivalSpec{Process: protean.ArrivalPoisson, MeanGap: 40_000},
		Admission: protean.AdmissionSpec{Bound: 3, Policy: protean.AdmissionShed},
		Placement: protean.PlacementSpec{Policy: "weighted-affinity", Weight: 100_000},
	}
	rotation := []string{"alpha/hw-nosoft", "twofish/hw-nosoft", "echo/hw-nosoft"}
	for i := 0; i < 9; i++ {
		sc.Jobs = append(sc.Jobs, protean.JobSpec{Workload: rotation[i%len(rotation)], Instances: 2})
	}
	return sc
}

func write(path string, sc protean.Scenario) {
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d bytes)", path, len(data))
}
