package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"protean"
	"protean/internal/cluster"
)

// TestCodecRoundTrip drives every scalar shape through encode→decode and
// re-encode, checking value identity and byte identity.
func TestCodecRoundTrip(t *testing.T) {
	uints := []uint64{0, 1, 0x7f, 0x80, 0xff, 0x100, 0xffff, 0x10000, 0xffffffff, 0x100000000, math.MaxUint64}
	for _, v := range uints {
		var e Encoder
		e.Uint(v)
		d := NewDecoder(e.Bytes())
		got, err := d.Uint()
		if err != nil || got != v || !d.Done() {
			t.Fatalf("uint %d: got %d err %v done %v", v, got, err, d.Done())
		}
	}
	ints := []int64{0, -1, -32, -33, -128, -129, -32768, -32769, math.MinInt32, math.MinInt32 - 1, math.MinInt64, 5, math.MaxInt64}
	for _, v := range ints {
		var e Encoder
		e.Int(v)
		d := NewDecoder(e.Bytes())
		got, err := d.Int()
		if err != nil || got != v || !d.Done() {
			t.Fatalf("int %d: got %d err %v done %v", v, got, err, d.Done())
		}
	}
	strs := []string{"", "x", string(make([]byte, 31)), string(make([]byte, 32)), string(make([]byte, 256)), string(make([]byte, 70000))}
	for _, v := range strs {
		var e Encoder
		e.Str(v)
		d := NewDecoder(e.Bytes())
		got, err := d.Str()
		if err != nil || got != v || !d.Done() {
			t.Fatalf("str len %d: got len %d err %v", len(v), len(got), err)
		}
	}
	bins := [][]byte{nil, {1, 2, 3}, make([]byte, 256), make([]byte, 70000)}
	for _, v := range bins {
		var e Encoder
		e.Bin(v)
		d := NewDecoder(e.Bytes())
		got, err := d.Bin()
		if err != nil || !bytes.Equal(got, v) || !d.Done() {
			t.Fatalf("bin len %d: err %v", len(v), err)
		}
	}
}

// TestCodecCanonical rejects the non-minimal encodings the encoder never
// produces: a widened uint, a widened negative int, a widened string
// header, and an oversized-count container header.
func TestCodecCanonical(t *testing.T) {
	cases := [][]byte{
		{0xcc, 0x05},                // uint8 5 (should be fixint)
		{0xcd, 0x00, 0xff},          // uint16 255 (should be uint8)
		{0xd0, 0xff},                // int8 -1 (should be negfixint)
		{0xd1, 0xff, 0x80},          // int16 -128 (should be int8)
		{0xd9, 0x03, 'a', 'b', 'c'}, // str8 of 3 (should be fixstr)
	}
	for _, c := range cases {
		if _, _, err := DecodeValue(c); err == nil {
			t.Errorf("DecodeValue(%x) accepted a non-canonical encoding", c)
		}
	}
	// Canonical forms of the same values are accepted.
	ok := [][]byte{{0x05}, {0xcc, 0xff}, {0xff}, {0xd0, 0x80}, {0xa3, 'a', 'b', 'c'}}
	for _, c := range ok {
		if _, _, err := DecodeValue(c); err != nil {
			t.Errorf("DecodeValue(%x): %v", c, err)
		}
	}
}

// TestCodecHostileHeaders checks that huge claimed lengths fail fast
// instead of allocating.
func TestCodecHostileHeaders(t *testing.T) {
	cases := [][]byte{
		{0xdd, 0xff, 0xff, 0xff, 0xff},      // array32 of 4G elements, empty body
		{0xdf, 0xff, 0xff, 0xff, 0xff},      // map32 of 4G pairs
		{0xdb, 0xff, 0xff, 0xff, 0xff, 'x'}, // str32 of 4G bytes
		{0xc6, 0xff, 0xff, 0xff, 0xff},      // bin32 of 4G bytes
	}
	for _, c := range cases {
		if _, _, err := DecodeValue(c); err == nil {
			t.Errorf("DecodeValue(%x) accepted a hostile header", c)
		}
	}
}

// TestMessageRoundTrip drives one of every message kind through
// encode→decode→encode and checks both struct and byte identity.
func TestMessageRoundTrip(t *testing.T) {
	exp := uint32(7)
	msgs := []Msg{
		Hello{Version: Version},
		HelloOK{Version: Version, Server: "proteand/test"},
		Submit{Spec: []byte(`{"nodes":[{}],"jobs":[{"workload":"echo"}]}`)},
		SubmitOK{Job: 42},
		Status{Job: 42},
		StatusOK{Job: 42, State: StateDone, Makespan: 123456, Err: ""},
		Cancel{Job: 9000},
		CancelOK{Job: 9000, Canceled: true},
		Result{Job: 42},
		ResultOK{Job: 42, Fleet: sampleFleet(&exp)},
		Metrics{},
		MetricsOK{Snap: sampleSnapshot()},
		Watch{Job: 42},
		Event{Job: 42, Ev: protean.Event{
			Kind: protean.EventJobDone, Label: "alpha x2", PID: 3,
			Cycle: 1 << 40, Procs: 2, OK: true, Message: "job done",
		}},
		EventGap{Job: 42, Dropped: 17},
		Done{Job: 42, State: StateCanceled, Err: "context canceled"},
		Error{Msg: "unknown job 99"},
	}
	// The kind→type table holds exactly one body type per K* constant
	// (kinds run 1..KError), and each message decodes into its own type.
	if len(msgTypes) != KError+1 || msgTypes[0] != nil {
		t.Fatalf("msgTypes has %d slots (slot 0 %v), want kinds 1..%d", len(msgTypes), msgTypes[0], KError)
	}
	seen := map[uint64]bool{}
	for _, m := range msgs {
		if msgTypes[m.Kind()] != reflect.TypeOf(m) {
			t.Fatalf("msgTypes[%d] = %v, want %T", m.Kind(), msgTypes[m.Kind()], m)
		}
		seen[m.Kind()] = true
	}
	if len(seen) != KError {
		t.Fatalf("round trip covers %d kinds, want %d", len(seen), KError)
	}

	for i, m := range msgs {
		id := uint64(i * 31)
		payload := EncodeMessage(id, m)
		gotID, got, err := DecodeMessage(payload)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if gotID != id {
			t.Fatalf("%T: id %d, want %d", m, gotID, id)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%T: decoded %+v, want %+v", m, got, m)
		}
		re := EncodeMessage(gotID, got)
		if !bytes.Equal(re, payload) {
			t.Fatalf("%T: re-encode differs:\n  %x\n  %x", m, re, payload)
		}
	}
}

// TestDecodeMessageRejects covers the malformed-envelope classes and the
// object decoder's shape, range and allocation checks.
func TestDecodeMessageRejects(t *testing.T) {
	good := EncodeMessage(1, Status{Job: 5})
	cases := map[string][]byte{
		"empty":        {},
		"truncated":    good[:len(good)-1],
		"trailing":     append(append([]byte{}, good...), 0x00),
		"unknown kind": EncodeMessage(1, fakeKind{}),
		"not an array": {0x01},
		"wrong arity":  {0x92, 0x01, 0x00},
		"pid overflows uint32": envelope(KEvent, func(e *Encoder) {
			e.ArrayHeader(2)
			e.Uint(4)
			e.ArrayHeader(7)
			e.Int(int64(protean.EventJobDone))
			e.Str("alpha x2")
			e.Uint(1 << 32)
			e.Uint(0)
			e.Int(0)
			e.Bool(true)
			e.Str("")
		}),
		"nested job arity": shiftedJob(t),
		"claimed jobs": envelope(KResultOK, func(e *Encoder) {
			e.ArrayHeader(2)
			e.Uint(1)
			e.ArrayHeader(reflect.TypeFor[protean.FleetResult]().NumField())
			e.Str("")
			e.ArrayHeader(0)
			e.ArrayHeader(1 << 20)
			for i := 0; i < 16; i++ { // pad past the fleet header's own bound
				e.Uint(0)
			}
		}),
	}
	for name, payload := range cases {
		if _, _, err := DecodeMessage(payload); err == nil {
			t.Errorf("%s: DecodeMessage accepted %x", name, payload)
		}
	}
}

// fakeKind encodes an envelope with an unassigned kind tag.
type fakeKind struct{}

func (fakeKind) Kind() uint64 { return 200 }

// envelope frames a hand-built body under the given kind, for shapes
// the typed encoder cannot produce.
func envelope(kind uint64, body func(e *Encoder)) []byte {
	var e Encoder
	e.ArrayHeader(3)
	e.Uint(kind)
	e.Uint(1)
	body(&e)
	return e.Bytes()
}

// shiftedJob is a ResultOK frame whose one JobResult has lost its last
// field (a nil Run) to the fleet array that follows it. Every value
// still lines up positionally, so only the arity checks reject it.
func shiftedJob(t *testing.T) []byte {
	fr := &protean.FleetResult{Jobs: []protean.JobResult{{Placement: cluster.Placement{Node: -1, Shed: true}}}}
	v, _, err := DecodeValue(EncodeMessage(1, ResultOK{Job: 1, Fleet: fr}))
	if err != nil {
		t.Fatal(err)
	}
	body := v.(Array)[2].(Array)
	fleet := body[1].(Array)
	job := fleet[2].(Array)[0].(Array)
	fleet[2].(Array)[0] = job[:len(job)-1]
	body[1] = slices.Insert(fleet, 3, Value(nil))
	var e Encoder
	if err := e.EncodeValue(v); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

// TestFleetResultWireJSONIdentity is the codec half of the daemon's
// acceptance bar: a real FleetResult encoded to the wire, decoded back,
// and marshaled to JSON must be byte-identical to marshaling the
// original directly.
func TestFleetResultWireJSONIdentity(t *testing.T) {
	sc := protean.Scenario{
		Seed:    3,
		Workers: 2,
		Metrics: true,
		Nodes:   []protean.NodeSpec{{Count: 2, Session: protean.SessionSpec{Scale: 800}}},
		Jobs: []protean.JobSpec{
			{Workload: "echo/hw-nosoft", Instances: 2, Count: 2},
			{Workload: "alpha/hw-nosoft"},
		},
	}
	fr, err := protean.RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(fr)
	if err != nil {
		t.Fatal(err)
	}

	payload := EncodeMessage(1, ResultOK{Job: 1, Fleet: fr})
	_, m, err := DecodeMessage(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(m.(ResultOK).Fleet)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire round-trip changed the FleetResult JSON:\n got %s\nwant %s", got, want)
	}
}

// sampleFleet builds a synthetic FleetResult exercising the optional
// fields a simulated run may not: a shed job (Node -1, no Run), a nil
// and a set Expected, and attached metrics.
func sampleFleet(exp *uint32) *protean.FleetResult {
	snap := sampleSnapshot()
	return &protean.FleetResult{
		Policy: "config-affinity",
		Nodes: []protean.NodeResult{
			{Node: 0, Class: 1, ClockScale: 3, Jobs: 2, Busy: 100, ColdLoads: 2, WarmHits: 1, FetchCycles: 50, Completion: 1 << 33},
		},
		Jobs: []protean.JobResult{
			{ID: 0, Label: "alpha x2", Workload: "alpha", Placement: cluster.Placement{Node: 0, Arrival: 1, Start: 2, Completion: 300,
				ColdLoads: 1, WarmHits: 0, FetchCycles: 25, Latency: 299}, Run: &protean.Result{
				Cycles: 300, Completion: 300,
				Procs: []protean.ProcResult{
					{PID: 1, Name: "alpha.0", Workload: "alpha", State: protean.ProcExited, ExitCode: 7, Expected: exp, Start: 2, Completion: 300, Switches: 3, Faults: 1, Instrs: 1000},
					{PID: 2, Name: "free.0", State: protean.ProcKilled, Start: 5, Completion: 200},
				},
				CIS:     protean.CISStats{Faults: 4, Loads: 2, ConfigBytes: 1 << 20},
				Kernel:  protean.KernelStats{ContextSwitches: 9, KernelCycles: 1234},
				RFU:     protean.RFUStats{HWDispatches: 55, ExecCycles: 1 << 34},
				TLB1:    protean.TLBStats{Lookups: 10, Misses: 2},
				TLB2:    protean.TLBStats{Lookups: 8},
				Console: "hello\n",
				Trace:   "",
				Metrics: &snap,
			}},
			{ID: 1, Label: "twofish x1", Workload: "twofish", Placement: cluster.Placement{Node: -1, Arrival: 7, Shed: true}},
			{ID: 2, Label: "echo x1", Workload: "echo", Placement: cluster.Placement{Node: 0, Arrival: 8, Start: 400, Completion: 500,
				Latency: 492, Deferred: true, DeferCycles: 100}, Run: &protean.Result{Cycles: 100, Completion: 100}},
		},
		Totals: cluster.Totals{Makespan: 500, Busy: 450, ColdLoads: 3, WarmHits: 1, FetchCycles: 75,
			Shed: 1, Deferred: 1, DeferCycles: 100,
			Latency: protean.LatencyStats{Jobs: 2, Mean: 395, P50: 299, P95: 492, P99: 492, Max: 492}},
		CIS:     protean.CISStats{Faults: 4, Loads: 2},
		Kernel:  protean.KernelStats{ContextSwitches: 9},
		RFU:     protean.RFUStats{HWDispatches: 55},
		Metrics: &snap,
	}
}

func sampleSnapshot() protean.Metrics {
	return protean.Metrics{Metrics: []protean.MetricPoint{
		{Name: "protean_a_total", Kind: "counter", Help: "a", Value: 12},
		{Name: "protean_b", Kind: "gauge", Gauge: -3},
		{Name: "protean_c_cycles", Kind: "histogram", Bounds: []uint64{10, 100}, Counts: []uint64{1, 2, 3}, Sum: 444, Count: 6},
	}}
}
