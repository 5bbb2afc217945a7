package protean_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"protean"
)

// runFleet runs sc through RunScenario, failing the test on a run error
// or a result that breaks a checkFleet invariant.
func runFleet(t *testing.T, sc protean.Scenario, opts ...protean.StartOption) *protean.FleetResult {
	t.Helper()
	fr, err := protean.RunScenario(context.Background(), sc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFleet(fr); err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestClusterAffinityReducesConfigLoads is the tentpole's acceptance
// check: on a thrash-heavy mix, configuration-affinity placement must
// strictly reduce total configuration loads against round-robin.
func TestClusterAffinityReducesConfigLoads(t *testing.T) {
	run := func(policy string) *protean.FleetResult {
		sc := testScenario(12)
		sc.Placement = protean.PlacementSpec{Policy: policy}
		fr := runFleet(t, sc)
		if err := fr.Err(); err != nil {
			t.Fatal(err)
		}
		return fr
	}
	rr := run("round-robin")
	aff := run("config-affinity")
	if aff.ColdLoads >= rr.ColdLoads {
		t.Errorf("affinity cold loads %d not below round-robin %d", aff.ColdLoads, rr.ColdLoads)
	}
	if aff.ConfigLoads() >= rr.ConfigLoads() {
		t.Errorf("affinity total config loads %d not below round-robin %d",
			aff.ConfigLoads(), rr.ConfigLoads())
	}
	// Paired job streams: the in-session work is identical, so the whole
	// difference is placement locality.
	if aff.CIS.Loads != rr.CIS.Loads {
		t.Errorf("session loads differ: affinity=%d rr=%d", aff.CIS.Loads, rr.CIS.Loads)
	}
	t.Logf("config loads: round-robin=%d affinity=%d (cold %d vs %d)",
		rr.ConfigLoads(), aff.ConfigLoads(), rr.ColdLoads, aff.ColdLoads)
}

// TestClusterPlacementDeterminism checks the fleet determinism contract:
// serial and parallel fleet runs, and the same spec serialized to JSON
// and reloaded, produce byte-identical FleetResult CSV and JSON.
func TestClusterPlacementDeterminism(t *testing.T) {
	spec := func(workers int) protean.Scenario {
		sc := testScenario(9)
		sc.Placement = protean.PlacementSpec{Policy: "config-affinity"}
		sc.Workers = workers
		return sc
	}
	serial := runFleet(t, spec(1))
	refCSV, refJSON := serial.Table().CSV(), mustJSON(t, serial)
	for _, workers := range []int{1, 4, 8} {
		sc := spec(workers)
		loaded, err := protean.LoadScenario(mustJSON(t, sc))
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			name string
			sc   protean.Scenario
		}{{"spec-built", sc}, {"JSON-reloaded", loaded}} {
			fr := runFleet(t, run.sc)
			if !reflect.DeepEqual(serial, fr) {
				t.Fatalf("%s fleet result differs at workers=%d", run.name, workers)
			}
			if fr.Table().CSV() != refCSV {
				t.Errorf("%s fleet CSV not byte-identical at workers=%d", run.name, workers)
			}
			if !bytes.Equal(mustJSON(t, fr), refJSON) {
				t.Errorf("%s fleet JSON not byte-identical at workers=%d", run.name, workers)
			}
		}
	}
}

// TestClusterValidation covers the run-time options Start rejects before
// any simulation: the values a serializable spec cannot carry.
func TestClusterValidation(t *testing.T) {
	sc := testScenario(3)
	if _, err := protean.Start(context.Background(), sc, protean.WithRunPlacements(protean.PlaceAffinity, nil)); err == nil {
		t.Error("nil placement policy accepted")
	}
	if _, err := protean.Start(context.Background(), sc, protean.WithRunTrace(nil)); err == nil {
		t.Error("nil trace writer accepted")
	}
}

func TestClusterCancellation(t *testing.T) {
	sc := testScenario(6)
	sc.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := protean.RunScenario(ctx, sc); err == nil {
		t.Fatal("cancelled fleet run succeeded")
	}
}

// recordingSink counts events by kind behind a mutex, so parallel workers
// may hammer it under -race.
type recordingSink struct {
	mu     sync.Mutex
	counts map[protean.EventKind]int
}

func (rs *recordingSink) Event(e protean.Event) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.counts == nil {
		rs.counts = map[protean.EventKind]int{}
	}
	rs.counts[e.Kind]++
}

func (rs *recordingSink) count(k protean.EventKind) int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.counts[k]
}

// multiSink fans one event out to several sinks.
type multiSink []protean.Sink

func (ms multiSink) Event(e protean.Event) {
	for _, s := range ms {
		s.Event(e)
	}
}

// TestSinkConcurrentDelivery hammers a WriterSink and a recording sink
// from parallel fleet workers AND parallel job sessions at once — the -race
// gate for the concurrent Sink contract. Every job session streams its
// run-start/proc-exit/run-done events into the same shared sinks the
// fleet streams its job-done events into.
func TestSinkConcurrentDelivery(t *testing.T) {
	var buf bytes.Buffer
	rec := &recordingSink{}
	shared := multiSink{protean.WriterSink(&buf), rec}

	const jobs = 12
	sc := testScenario(jobs)
	sc.Workers = 8
	fr := runFleet(t, sc,
		protean.WithRunProgress(shared),
		protean.WithRunSessionOptions(protean.WithProgress(shared)))
	if err := fr.Err(); err != nil {
		t.Fatal(err)
	}

	if got := rec.count(protean.EventJobDone); got != jobs {
		t.Errorf("job-done events = %d, want %d", got, jobs)
	}
	if got := rec.count(protean.EventFleetDone); got != 1 {
		t.Errorf("fleet-done events = %d, want 1", got)
	}
	if got := rec.count(protean.EventRunStart); got != jobs {
		t.Errorf("run-start events = %d, want %d", got, jobs)
	}
	if got := rec.count(protean.EventProcessExit); got != jobs*2 {
		t.Errorf("proc-exit events = %d, want %d", got, jobs*2)
	}
	// WriterSink writes one line per event, never interleaved mid-line.
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var total int
	rec.mu.Lock()
	for _, n := range rec.counts {
		total += n
	}
	rec.mu.Unlock()
	if len(lines) != total {
		t.Errorf("WriterSink wrote %d lines for %d events", len(lines), total)
	}
	for _, l := range lines {
		if strings.TrimSpace(l) == "" {
			t.Error("WriterSink produced an empty (torn) line")
		}
	}
}

func TestFleetResultSerialization(t *testing.T) {
	sc := testScenario(3)
	sc.Placement = protean.PlacementSpec{Policy: "config-affinity"}
	fr := runFleet(t, sc)

	csv := fr.Table().CSV()
	if !strings.HasPrefix(csv, "job,label,workload,node,") {
		t.Errorf("fleet CSV header:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got != 4 { // header + 3 jobs
		t.Errorf("fleet CSV has %d lines, want 4:\n%s", got, csv)
	}
	var sb strings.Builder
	if err := fr.WriteCSV(&sb); err != nil || sb.String() != csv {
		t.Errorf("WriteCSV mismatch (err=%v)", err)
	}

	raw, err := json.Marshal(fr)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Policy      string `json:"Policy"`
		ConfigLoads uint64 `json:"config_loads"`
		Error       string `json:"error"`
		Jobs        []struct {
			Run struct {
				Error string `json:"error"`
			} `json:"Run"`
		} `json:"Jobs"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("fleet JSON does not round-trip: %v", err)
	}
	if decoded.Policy != "config-affinity" || decoded.Error != "" {
		t.Errorf("fleet JSON fields: %+v", decoded)
	}
	if decoded.ConfigLoads != fr.ConfigLoads() {
		t.Errorf("config_loads = %d, want %d", decoded.ConfigLoads, fr.ConfigLoads())
	}
	if len(decoded.Jobs) != 3 {
		t.Errorf("JSON jobs = %d", len(decoded.Jobs))
	}
}

func TestResultSerialization(t *testing.T) {
	s, err := protean.New(protean.WithScale(800))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spawn("alpha/hw-nosoft", 2, 0); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	csv := res.Table().CSV()
	if !strings.HasPrefix(csv, "pid,name,workload,state,") {
		t.Errorf("result CSV header:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got != 3 { // header + 2 processes
		t.Errorf("result CSV has %d lines, want 3:\n%s", got, csv)
	}

	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Cycles uint64 `json:"Cycles"`
		Error  string `json:"error"`
		Procs  []json.RawMessage
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("result JSON does not round-trip: %v", err)
	}
	if decoded.Cycles != res.Cycles || decoded.Error != "" || len(decoded.Procs) != 2 {
		t.Errorf("result JSON fields: cycles=%d error=%q procs=%d",
			decoded.Cycles, decoded.Error, len(decoded.Procs))
	}
}

// TestTableEscapesCommas pins the shared serialization convention the
// figure CSVs rely on.
func TestTableEscapesCommas(t *testing.T) {
	tab := &protean.Table{Header: []string{"x", "a, b"}}
	tab.AddRow(1, "c,d")
	want := "x,a; b\n1,c;d\n"
	if got := tab.CSV(); got != want {
		t.Errorf("table CSV = %q, want %q", got, want)
	}
}

// TestClusterLanesByteIdentical locks the sharing contract at the
// facade: with identical jobs sharing sessions (Scenario.Lanes 0, the
// default) and with one session per job (Lanes 1), the FleetResult — CSV
// and JSON serializations included — is byte-identical at every worker
// count. The mix repeats each workload, behavioural and gate-level
// (alpha/gate runs a real bitstream image), and holds one group of more
// than 64 identical jobs, which must still share a single session.
func TestClusterLanesByteIdentical(t *testing.T) {
	scenario := func(lanes, workers int, policy string) protean.Scenario {
		sc := testScenario(12)
		sc.Jobs = append(sc.Jobs,
			protean.JobSpec{Workload: "alpha/gate", Instances: 2, Items: 200, Count: 3},
			protean.JobSpec{Workload: "echo/hw-nosoft", Instances: 1, Items: 50, Count: 70})
		sc.Placement = protean.PlacementSpec{Policy: "config-affinity"}
		sc.Lanes = lanes
		sc.Workers = workers
		if policy != "" {
			sc.Nodes[0].Session.Policy = policy
		}
		return sc
	}
	run := func(lanes, workers int, policy string) *protean.FleetResult {
		return runFleet(t, scenario(lanes, workers, policy))
	}
	// One node class, so every identity shares exactly one session.
	identities := map[protean.JobSpec]bool{}
	for _, js := range scenario(0, 1, "").Jobs {
		js.Count = 0
		identities[js] = true
	}
	scalar := run(1, 1, "")
	for _, workers := range []int{1, 4, 8} {
		shared := run(0, workers, "")
		sessions := map[*protean.Result]bool{}
		for _, j := range shared.Jobs {
			sessions[j.Run] = true
		}
		if len(sessions) != len(identities) {
			t.Errorf("workers=%d: %d distinct sessions for %d job identities", workers, len(sessions), len(identities))
		}
		if !reflect.DeepEqual(scalar, shared) {
			t.Fatalf("shared-session fleet result differs from one session per job at workers=%d", workers)
		}
		if scalar.Table().CSV() != shared.Table().CSV() {
			t.Errorf("shared-session CSV not byte-identical at workers=%d", workers)
		}
		if !bytes.Equal(mustJSON(t, scalar), mustJSON(t, shared)) {
			t.Errorf("shared-session JSON not byte-identical at workers=%d", workers)
		}
	}
	// Seed-sensitive sessions veto sharing: under the random replacement
	// policy each job's derived seed matters, so Lanes 0 must fall back
	// to one session per job and still match Lanes 1 exactly.
	randScalar := run(1, 1, "random")
	randAuto := run(0, 4, "random")
	if !reflect.DeepEqual(randScalar, randAuto) {
		t.Fatal("random-policy fleet differs between lanes 0 and 1: sharing was not vetoed")
	}
}
