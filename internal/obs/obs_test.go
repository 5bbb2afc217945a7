package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "test", []uint64{10, 100, 1000})
	// Values exactly on an upper edge land in that bucket (le is
	// inclusive); one past the edge lands in the next.
	for _, v := range []uint64{0, 1, 10} {
		h.Observe(v)
	}
	for _, v := range []uint64{11, 100} {
		h.Observe(v)
	}
	h.Observe(101)
	h.Observe(1000)
	h.Observe(1001) // overflow
	h.Observe(1 << 60)

	m, ok := r.Snapshot().Get("lat")
	if !ok {
		t.Fatal("lat missing from snapshot")
	}
	wantCounts := []uint64{3, 2, 2, 2}
	if len(m.Counts) != len(wantCounts) {
		t.Fatalf("counts = %v, want %v", m.Counts, wantCounts)
	}
	for i := range wantCounts {
		if m.Counts[i] != wantCounts[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, m.Counts[i], wantCounts[i], m.Counts)
		}
	}
	if m.Count != 9 {
		t.Errorf("count = %d, want 9", m.Count)
	}
	wantSum := uint64(0 + 1 + 10 + 11 + 100 + 101 + 1000 + 1001 + 1<<60)
	if m.Sum != wantSum {
		t.Errorf("sum = %d, want %d", m.Sum, wantSum)
	}
}

func TestHistogramProm(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("soj", "sojourn cycles", []uint64{8, 64})
	h.Observe(5)
	h.Observe(8)
	h.Observe(9)
	h.Observe(1000)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := strings.Join([]string{
		"# HELP soj sojourn cycles",
		"# TYPE soj histogram",
		`soj_bucket{le="8"} 2`,
		`soj_bucket{le="64"} 3`,
		`soj_bucket{le="+Inf"} 4`,
		"soj_sum 1022",
		"soj_count 4",
		"",
	}, "\n")
	if got != want {
		t.Errorf("prom exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(4, 4, 5)
	want := []uint64{4, 16, 64, 256, 1024}
	if len(got) != len(want) {
		t.Fatalf("ExpBuckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	// Saturation: a huge start must not wrap into an unsorted tail.
	wide := ExpBuckets(1<<62, 4, 8)
	for i := 1; i < len(wide); i++ {
		if wide[i] <= wide[i-1] {
			t.Fatalf("ExpBuckets wrapped: %v", wide)
		}
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "")
	g := r.Gauge("backlog", "")
	h := r.Histogram("wait", "", []uint64{10})

	c.Add(3)
	g.Set(7)
	h.Observe(4)
	prev := r.Snapshot()

	c.Add(5)
	g.Set(2)
	h.Observe(20)
	h.Observe(6)
	cur := r.Snapshot()

	d := cur.Diff(prev)
	if m, _ := d.Get("jobs_total"); m.Value != 5 {
		t.Errorf("counter delta = %d, want 5", m.Value)
	}
	if m, _ := d.Get("backlog"); m.Gauge != -5 {
		t.Errorf("gauge delta = %d, want -5", m.Gauge)
	}
	m, _ := d.Get("wait")
	if m.Count != 2 || m.Sum != 26 {
		t.Errorf("hist delta count=%d sum=%d, want 2/26", m.Count, m.Sum)
	}
	if m.Counts[0] != 1 || m.Counts[1] != 1 {
		t.Errorf("hist delta counts = %v, want [1 1]", m.Counts)
	}

	// Diff against an empty snapshot passes metrics through unchanged.
	d0 := cur.Diff(Snapshot{})
	if m, _ := d0.Get("jobs_total"); m.Value != 8 {
		t.Errorf("diff vs empty: counter = %d, want 8", m.Value)
	}
}

func TestSnapshotMerge(t *testing.T) {
	mk := func(jobs uint64, wait ...uint64) Snapshot {
		r := NewRegistry()
		r.Counter("jobs_total", "").Add(jobs)
		h := r.Histogram("wait", "", []uint64{10})
		for _, v := range wait {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	a := mk(2, 4)
	b := mk(3, 20, 5)
	m := a.Merge(b)
	if got, _ := m.Get("jobs_total"); got.Value != 5 {
		t.Errorf("merged counter = %d, want 5", got.Value)
	}
	if got, _ := m.Get("wait"); got.Count != 3 || got.Sum != 29 {
		t.Errorf("merged hist count=%d sum=%d, want 3/29", got.Count, got.Sum)
	}
	// Merge must not mutate its receiver.
	if got, _ := a.Get("jobs_total"); got.Value != 2 {
		t.Errorf("Merge mutated receiver: %d", got.Value)
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	mk := func() []byte {
		r := NewRegistry()
		// Register out of order; snapshot must sort by name.
		r.Counter("zz", "").Inc()
		r.Gauge("aa", "").Set(1)
		r.Histogram("mm", "", []uint64{1}).Observe(0)
		b, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b2 := mk(), mk()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("snapshot JSON not stable:\n%s\n%s", b1, b2)
	}
	var decoded Snapshot
	if err := json.Unmarshal(b1, &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if len(decoded.Metrics) != 3 || decoded.Metrics[0].Name != "aa" || decoded.Metrics[2].Name != "zz" {
		t.Fatalf("unexpected order: %s", b1)
	}
}

func TestTracerChromeTrace(t *testing.T) {
	tr := NewTracer()
	tr.SetTrackName(0, "node 0")
	tr.SetTrackName(1, "node 1")
	// Record out of order; export must sort per track by ts.
	tr.Span(1, "exec", "job b", 50, 90, Arg{"label", "b"}, Arg{"cold", 1})
	tr.Span(0, "exec", "job a", 10, 40)
	tr.Instant(0, "admission", "shed", 30, Arg{"job", "c"})
	tr.Span(0, "fetch", "fetch a", 0, 10)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if err := ValidateChromeTrace(data); err != nil {
		t.Fatalf("exported trace invalid: %v\n%s", err, data)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	// 2 metadata + 4 events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6:\n%s", len(doc.TraceEvents), data)
	}
	if doc.TraceEvents[0]["ph"] != "M" || doc.TraceEvents[1]["ph"] != "M" {
		t.Fatalf("metadata not first:\n%s", data)
	}

	// Determinism: identical recordings render identical bytes.
	var buf2 bytes.Buffer
	tr.WriteChromeTrace(&buf2)
	if !bytes.Equal(data, buf2.Bytes()) {
		t.Fatal("WriteChromeTrace not stable across calls")
	}
}

func TestTracerDroppedWarning(t *testing.T) {
	tr := NewTracer()
	tr.Span(0, "exec", "job", 0, 5)
	tr.NoteDropped(42)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("trace with warning invalid: %v", err)
	}
	if !strings.Contains(buf.String(), "trace truncated") || !strings.Contains(buf.String(), `"dropped_events":42`) {
		t.Fatalf("missing truncation warning:\n%s", buf.String())
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":     `{`,
		"empty events": `{"traceEvents":[]}`,
		"only meta":    `{"traceEvents":[{"name":"thread_name","ph":"M","pid":0,"tid":0}]}`,
		"nonmonotone": `{"traceEvents":[
			{"name":"a","ph":"X","pid":0,"tid":1,"ts":50,"dur":1},
			{"name":"b","ph":"X","pid":0,"tid":1,"ts":10,"dur":1}]}`,
	}
	for name, data := range cases {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
	ok := `{"traceEvents":[
		{"name":"a","ph":"X","pid":0,"tid":1,"ts":50,"dur":1},
		{"name":"b","ph":"X","pid":0,"tid":2,"ts":10,"dur":1}]}`
	if err := ValidateChromeTrace([]byte(ok)); err != nil {
		t.Errorf("cross-track ts order wrongly rejected: %v", err)
	}
}

func TestTask(t *testing.T) {
	ran := false
	Task(context.Background(), "cell", "f1/n=4", func() { ran = true })
	if !ran {
		t.Fatal("Task did not run f")
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	Task(context.Background(), "cell", "profiled", func() {})
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no profile written (%v)", filepath.Base(path), err)
		}
	}

	// Empty paths profile nothing; an unwritable path fails up front.
	stop, err = StartProfiles("", "")
	if err != nil || stop() != nil {
		t.Errorf("empty paths: err %v", err)
	}
	if _, err := StartProfiles(filepath.Join(dir, "missing", "cpu.prof"), ""); err == nil {
		t.Error("unwritable CPU profile path accepted")
	}
	stop, err = StartProfiles("", filepath.Join(dir, "missing", "mem.prof"))
	if err != nil {
		t.Fatal(err)
	}
	if stop() == nil {
		t.Error("unwritable allocation profile path accepted")
	}
}
