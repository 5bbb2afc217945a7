package exp

import (
	"testing"

	"protean"
)

// fleetScale keeps the fleet sweeps fast in unit tests.
var fleetScale = Scale{Factor: 800}

func TestPlacementSweepShapeAndAffinityWins(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep")
	}
	sw := Sweeper{Scale: fleetScale, Seed: 1}
	makespan, loads, err := sw.PlacementSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(makespan.Series) != 4 || len(loads.Series) != 4 {
		t.Fatalf("series: makespan=%d loads=%d, want 4 each", len(makespan.Series), len(loads.Series))
	}
	for _, s := range loads.Series {
		if len(s.X) != len(placementNodeCounts) {
			t.Fatalf("%s: %d points", s.Label, len(s.X))
		}
	}
	aff, _ := loads.SeriesByLabel("config-affinity")
	rr, _ := loads.SeriesByLabel("round-robin")
	// With one node there is nothing to place; beyond that, affinity must
	// never load more than round-robin and must win somewhere.
	won := false
	for _, n := range placementNodeCounts[1:] {
		a, _ := aff.At(n)
		r, _ := rr.At(n)
		if a > r {
			t.Errorf("nodes=%d: affinity config loads %d > round-robin %d", n, a, r)
		}
		if a < r {
			won = true
		}
	}
	if !won {
		t.Errorf("affinity never beat round-robin on config loads:\n%s", loads.Table())
	}
}

func TestPlacementSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep")
	}
	serial := Sweeper{Scale: fleetScale, Seed: 1, Workers: 1}
	parallel := Sweeper{Scale: fleetScale, Seed: 1, Workers: 8}
	m1, l1, err := serial.PlacementSweep()
	if err != nil {
		t.Fatal(err)
	}
	m2, l2, err := parallel.PlacementSweep()
	if err != nil {
		t.Fatal(err)
	}
	if m1.CSV() != m2.CSV() || l1.CSV() != l2.CSV() {
		t.Error("placement sweep output not byte-identical across worker counts")
	}
}

func TestRunFleetPairsSeedsAcrossPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet run")
	}
	// Two *independent* executions with the same sweep seed must pair with
	// a single shared-execution WithRunPlacements run: same session work,
	// same arrivals.
	sw := Sweeper{Scale: fleetScale, Seed: 1}
	solo, err := sw.RunFleet(4, protean.PlaceRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := sw.RunFleet(4, protean.PlaceRoundRobin, protean.PlaceAffinity)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pair[0], pair[1]
	if a.CIS.Loads != b.CIS.Loads || a.CIS.Loads != solo[0].CIS.Loads {
		t.Errorf("session loads differ: rr=%d affinity=%d independent-rr=%d",
			a.CIS.Loads, b.CIS.Loads, solo[0].CIS.Loads)
	}
	if a.Makespan != solo[0].Makespan {
		t.Errorf("shared-execution replay differs from independent run: %d vs %d",
			a.Makespan, solo[0].Makespan)
	}
	for i := range a.Jobs {
		if a.Jobs[i].Arrival != b.Jobs[i].Arrival {
			t.Errorf("job %d arrival differs: %d vs %d", i, a.Jobs[i].Arrival, b.Jobs[i].Arrival)
		}
	}
}
