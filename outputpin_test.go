package protean_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"protean"
)

// pinnedOutputs are the sha256 digests of every rendering of a golden
// scenario's FleetResult — its JSON, its CSV, its Chrome trace and its
// metrics snapshot JSON — run with metrics on. A change to how the fleet
// record is built or stored must leave all four byte-identical.
var pinnedOutputs = map[string][4]string{
	"scenario_hetero.json": {
		"c2cea3239ec829ac2b5a3075747d550570081d19b7c1103d96a530bb09a408bf",
		"27b18c4ad445c38f8e74954f427d33d1778010495b8fa45625db26ebd794df96",
		"1df2be971618f1bf37de0a218283f667d2eb34981c8d860b1ed355fb22235bc6",
		"7b5a12ff572bd2593dd8f197cff34c1c3e96998ea0e3125f63f1b44da489986c",
	},
	"scenario_uniform.json": {
		"b8c278a528f2c2d0975933160aa5f6e078207ca839cc39d4bdd1e26c3eaa59ef",
		"77f27cead3bdeef47a76b47c3fc2fd6da126828f695a77a7956536a6733096a0",
		"bcaff2ee73954b7577b7ef5f168f95a5f53f5cbdb95904c96f31435f650196fb",
		"230465e3b7e14214cad936ce3660409d76526391f7d9f51a84f02cfda17d9604",
	},
}

// TestFleetOutputBytesPinned runs both golden specs at 1 and 4 workers
// and compares each rendering's digest with pinnedOutputs.
func TestFleetOutputBytesPinned(t *testing.T) {
	for file, want := range pinnedOutputs {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := protean.LoadScenario(data)
		if err != nil {
			t.Fatal(err)
		}
		sc.Metrics = true
		for _, workers := range []int{1, 4} {
			sc.Workers = workers
			got, err := fleetOutputDigests(sc)
			if err != nil {
				t.Fatalf("%s workers %d: %v", file, workers, err)
			}
			for i, what := range []string{"JSON", "CSV", "Chrome trace", "metrics"} {
				if got[i] != want[i] {
					t.Errorf("%s workers %d: %s digest %s, want %s", file, workers, what, got[i], want[i])
				}
			}
		}
	}
}

// fleetOutputDigests runs sc and digests its four renderings.
func fleetOutputDigests(sc protean.Scenario) ([4]string, error) {
	var out [4]string
	var trace, csv bytes.Buffer
	fr, err := protean.RunScenario(context.Background(), sc, protean.WithRunTrace(&trace))
	if err != nil {
		return out, err
	}
	if fr.Metrics == nil {
		return out, fmt.Errorf("no metrics snapshot")
	}
	js, err := fr.MarshalJSON()
	if err != nil {
		return out, err
	}
	if err := fr.WriteCSV(&csv); err != nil {
		return out, err
	}
	metrics, err := json.Marshal(fr.Metrics)
	if err != nil {
		return out, err
	}
	for i, b := range [][]byte{js, csv.Bytes(), trace.Bytes(), metrics} {
		sum := sha256.Sum256(b)
		out[i] = hex.EncodeToString(sum[:])
	}
	return out, nil
}
