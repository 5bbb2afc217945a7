package protean_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"protean"
	"protean/internal/obs"
)

// obsScenario is the determinism test bed the issue asks for: Poisson
// arrivals under a defer admission bound, heterogeneous jobs, tight
// stores — every observability-relevant path (shed/defer, cold/warm
// store traffic, queueing) is exercised.
func obsScenario() protean.Scenario {
	sc := testScenario(9)
	sc.Arrivals = protean.ArrivalSpec{Process: protean.ArrivalPoisson, MeanGap: 30_000}
	sc.Admission = protean.AdmissionSpec{Bound: 1, Policy: protean.AdmissionDefer}
	sc.Placement = protean.PlacementSpec{Policy: "affinity"}
	return sc
}

// TestObservabilityDeterminism pins the tentpole contract: the Chrome
// trace bytes AND the metrics snapshot bytes are identical at workers
// 1, 4 and 8 on an admission-bounded Poisson scenario.
func TestObservabilityDeterminism(t *testing.T) {
	run := func(workers int) (traceJSON, metricsJSON, prom []byte) {
		sc := obsScenario()
		sc.Workers = workers
		sc.Metrics = true
		var buf bytes.Buffer
		fr, err := protean.RunScenario(context.Background(), sc, protean.WithRunTrace(&buf))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := fr.Err(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if fr.Metrics == nil {
			t.Fatalf("workers=%d: no metrics snapshot", workers)
		}
		mj, err := json.Marshal(fr.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), mj, []byte(fr.Metrics.Prom())
	}

	refTrace, refMetrics, refProm := run(1)
	if err := obs.ValidateChromeTrace(refTrace); err != nil {
		t.Fatalf("reference trace invalid: %v", err)
	}
	for _, workers := range []int{4, 8} {
		gotTrace, gotMetrics, gotProm := run(workers)
		if !bytes.Equal(gotTrace, refTrace) {
			t.Errorf("workers=%d: trace bytes differ from workers=1", workers)
		}
		if !bytes.Equal(gotMetrics, refMetrics) {
			t.Errorf("workers=%d: metrics JSON differs from workers=1:\n%s\n%s", workers, gotMetrics, refMetrics)
		}
		if !bytes.Equal(gotProm, refProm) {
			t.Errorf("workers=%d: prom exposition differs from workers=1", workers)
		}
	}

	// The fleet timeline must carry per-node tracks and the span
	// categories the issue names.
	s := string(refTrace)
	for _, want := range []string{`"node 0`, `"node 3`, `"dispatcher"`, `"cat":"exec"`, `"cat":"fetch"`, `"cat":"admission"`} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing %s", want)
		}
	}
	// And the snapshot must surface the admission outcomes this scenario
	// provokes.
	if m, ok := fleetMetric(t, refMetrics, "protean_fleet_deferred_total"); !ok || m == 0 {
		t.Errorf("expected deferred jobs in metrics, got %d (ok=%v)", m, ok)
	}
}

func fleetMetric(t *testing.T, metricsJSON []byte, name string) (uint64, bool) {
	t.Helper()
	var snap protean.Metrics
	if err := json.Unmarshal(metricsJSON, &snap); err != nil {
		t.Fatal(err)
	}
	m, ok := snap.Get(name)
	return m.Value, ok
}

// TestSessionMetricsAndTrace covers the fleet-of-one spelling: a Session
// run under WithMetrics + WithTraceOut yields a valid Chrome trace with
// per-process tracks and a reproducible snapshot.
func TestSessionMetricsAndTrace(t *testing.T) {
	run := func() ([]byte, []byte) {
		var buf bytes.Buffer
		s, err := protean.New(protean.WithScale(800),
			protean.WithMetrics(), protean.WithTraceOut(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Spawn("alpha", 2, 0); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		if res.Metrics == nil {
			t.Fatal("WithMetrics produced no snapshot")
		}
		mj, err := json.Marshal(res.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), mj
	}
	trace1, metrics1 := run()
	trace2, metrics2 := run()
	if err := obs.ValidateChromeTrace(trace1); err != nil {
		t.Fatalf("session trace invalid: %v", err)
	}
	if !bytes.Equal(trace1, trace2) || !bytes.Equal(metrics1, metrics2) {
		t.Fatal("session observability not reproducible across identical runs")
	}
	s := string(trace1)
	for _, want := range []string{`"pid 1 `, `"cat":"proc"`, `"cat":"config"`} {
		if !strings.Contains(s, want) {
			t.Errorf("session trace missing %s", want)
		}
	}
	var snap protean.Metrics
	if err := json.Unmarshal(metrics1, &snap); err != nil {
		t.Fatal(err)
	}
	if m, ok := snap.Get("protean_cis_config_loads_total"); !ok || m.Value == 0 {
		t.Errorf("expected config loads in session metrics, got %+v (ok=%v)", m, ok)
	}
}

// TestScenarioTraceOutFile covers the spec-level spelling: trace_out as
// a file path plus metrics, straight through Scenario JSON.
func TestScenarioTraceOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	sc := testScenario(4)
	sc.TraceOut = path
	sc.Metrics = true

	// The new fields round-trip through the spec JSON.
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := protean.LoadScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, sc) {
		t.Fatalf("trace_out/metrics fields drifted in round trip:\n got %+v\nwant %+v", loaded, sc)
	}

	fr, err := protean.RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Metrics == nil {
		t.Fatal("Scenario.Metrics produced no snapshot")
	}
	emitted, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace_out wrote nothing: %v", err)
	}
	if err := obs.ValidateChromeTrace(emitted); err != nil {
		t.Fatalf("trace_out file invalid: %v", err)
	}
}

// TestHostMetrics sanity-checks the host-side (non-deterministic) cache
// snapshot: after any run the template cache must have seen traffic.
func TestHostMetrics(t *testing.T) {
	s, err := protean.New(protean.WithScale(800))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spawn("alpha", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	hm := protean.HostMetrics()
	m, ok := hm.Get("protean_host_template_cache_misses_total")
	if !ok {
		t.Fatal("host metrics missing template cache counters")
	}
	if m.Value == 0 {
		t.Error("template cache never built anything despite a Spawn")
	}
}
