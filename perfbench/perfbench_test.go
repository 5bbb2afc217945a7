package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
)

func TestGenOpIsPure(t *testing.T) {
	for _, w := range workloadNames {
		a, err := genOp(w, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genOp(w, 7, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: genOp(7, 3) differs between calls", w)
		}
		otherSeed, _ := genOp(w, 8, 3)
		otherOp, _ := genOp(w, 7, 4)
		if reflect.DeepEqual(a, otherSeed) || reflect.DeepEqual(a, otherOp) {
			t.Errorf("%s: op inputs ignore the seed or the op index", w)
		}
	}
	if _, err := genOp("nope", 1, 0); err == nil {
		t.Error("genOp accepted an unknown workload")
	}
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1: the helper must sort
	}
	for pct, want := range map[int]float64{50: 50, 90: 90, 1: 1} {
		got, err := nearestRank(xs, pct)
		if err != nil || got != want {
			t.Errorf("p%d of 1..100 = %v, %v; want %v", pct, got, err, want)
		}
	}
	// 99 samples: p90 is rank 90, leaving 9 beyond it.
	if _, err := nearestRank(xs[:99], 90); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p90 of 99 samples: err %v, want errTooFewSamples", err)
	}
	if _, err := nearestRank(nil, 50); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p50 of no samples: err %v, want errTooFewSamples", err)
	}
}

// goldenOp0 pins op 0's result digest for seed 1. A change to the
// simulator that is not meant to change the model leaves these intact.
var goldenOp0 = map[string]string{
	"contention": "1e204635f37947ebb608cf27ba296be957e05f0a0df4ec7bbf5c3b0a3dc9af56",
	"fleet":      "b967e63fe9429054876dc04ca5146333ef8bd60d8d9633cf404d49f19ad233bb",
	"daemon":     "2f0b2a3ff4636d1f9905ccc3248917de68f6cff3840613763b52cc3dde03b966",
}

// TestSmoke runs every workload for a few ops, traced and untraced, and
// checks that both agree on the output digest and pass the invariance
// checks.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloadNames {
		traced := smokeRun(ctx, w, 1)
		plain := measure(ctx, runConfig{workload: w, seed: 1, warmup: 1, samples: 1})
		for _, rr := range []*rawRun{traced, plain} {
			if rr.Failed != 0 || rr.windowOps() == 0 || rr.Checked != 1 {
				t.Fatalf("%s: %d of %d ops failed, %d window ops, %d checks: %v",
					w, rr.Failed, rr.Attempted, rr.windowOps(), rr.Checked, rr.Errors)
			}
		}
		if traced.Digest != plain.Digest {
			t.Errorf("%s: traced digest %.16s, untraced %.16s", w, traced.Digest, plain.Digest)
		}
		if want := goldenOp0[w]; traced.Op0 != want {
			t.Errorf("%s: op 0 digest %s, want %s", w, traced.Op0, want)
		}
		if len(traced.layers.opMS) == 0 {
			t.Errorf("%s: traced smoke run folded no traced ops", w)
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", spec.EndToEnd, endToEnd)
	}
	var layers []metricDef
	for _, m := range perLayer {
		layers = append(layers, m.metricDef)
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", spec.PerLayer, layers)
	}
}
