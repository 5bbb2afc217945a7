package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
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

// TestSizeHelpers checks the size pass's helpers against what the
// encoder appends, at every width boundary.
func TestSizeHelpers(t *testing.T) {
	for _, v := range []uint64{0, 0x7f, 0x80, 0xff, 0x100, 0xffff, 0x10000, 0xffffffff, 0x100000000, math.MaxUint64} {
		var e Encoder
		e.Uint(v)
		if uintSize(v) != e.Len() {
			t.Errorf("uintSize(%d) = %d, encoder wrote %d", v, uintSize(v), e.Len())
		}
	}
	for _, v := range []int64{-1, -32, -33, -128, -129, -32768, -32769, math.MinInt32, math.MinInt32 - 1, math.MinInt64, 5, math.MaxInt64} {
		var e Encoder
		e.Int(v)
		if intSize(v) != e.Len() {
			t.Errorf("intSize(%d) = %d, encoder wrote %d", v, intSize(v), e.Len())
		}
	}
	for _, n := range []int{0, 15, 16, 31, 32, 255, 256, 65535, 65536} {
		var s, b, a Encoder
		s.Str(string(make([]byte, n)))
		b.Bin(make([]byte, n))
		a.ArrayHeader(n)
		if strSize(n) != s.Len() || binSize(n) != b.Len() || arrayHeaderSize(n) != a.Len() {
			t.Errorf("n=%d: sizes str %d bin %d array %d, encoder wrote %d, %d, %d",
				n, strSize(n), binSize(n), arrayHeaderSize(n), s.Len(), b.Len(), a.Len())
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

// TestPlanMin checks each message plan's min, the bound the decoder
// holds every array count to, against what it claims to be: the
// encoded size of the type's zero value, the smallest accepted value.
func TestPlanMin(t *testing.T) {
	for kind, typ := range msgTypes {
		if typ == nil {
			continue
		}
		walkPlans(planFor(typ), func(p *plan) {
			zero := reflect.New(p.typ).UnsafePointer()
			var e Encoder
			p.encode(&e, zero)
			if p.min != len(e.Bytes()) || p.size(zero) != p.min {
				t.Errorf("kind %d: %s: min %d, size pass %d, zero value encodes to %d bytes",
					kind, p.typ, p.min, p.size(zero), len(e.Bytes()))
			}
		})
	}
}

// walkPlans calls f on p and every plan its slices and pointers reach.
func walkPlans(p *plan, f func(*plan)) {
	f(p)
	for _, st := range p.steps {
		if st.elem != nil {
			walkPlans(st.elem, f)
		}
	}
}

// treeMsg is a message type no other test encodes, so its plan is built
// under TestPlanCacheConcurrent, and it refers to itself.
type treeMsg struct {
	Name string
	Kids []treeMsg
	Up   *treeMsg
}

func (treeMsg) Kind() uint64 { return 99 }

// TestPlanCacheConcurrent builds one plan from many goroutines at once
// (run it under -race): every encoding must agree, and the recursive
// type must frame as its nested arrays.
func TestPlanCacheConcurrent(t *testing.T) {
	m := treeMsg{Name: "a", Kids: []treeMsg{{Name: "b"}, {Name: "c", Up: &treeMsg{Name: "d"}}}}
	const workers = 8
	out := make([][]byte, workers)
	done := make(chan int)
	for w := 0; w < workers; w++ {
		go func() {
			out[w] = EncodeMessage(1, m)
			done <- w
		}()
	}
	for range workers {
		<-done
	}
	var e Encoder
	e.ArrayHeader(3)
	e.Uint(99)
	e.Uint(1)
	err := e.EncodeValue(Array{"a", Array{
		Array{"b", Array{}, nil},
		Array{"c", Array{}, Array{"d", Array{}, nil}},
	}, nil})
	if err != nil {
		t.Fatal(err)
	}
	for w, b := range out {
		if !bytes.Equal(b, e.Bytes()) {
			t.Errorf("goroutine %d: %x, want %x", w, b, e.Bytes())
		}
	}
}

// boxMsg is pointer-shaped: an interface holds its one pointer field
// directly.
type boxMsg struct{ P *uint64 }

func (boxMsg) Kind() uint64 { return 98 }

// TestPointerMessageEncodes checks messages an interface holds directly:
// one passed by pointer frames as its pointee does, and a struct whose
// one field is a pointer frames as that field.
func TestPointerMessageEncodes(t *testing.T) {
	x := uint64(300)
	var e Encoder
	e.ArrayHeader(3)
	e.Uint(98)
	e.Uint(3)
	e.ArrayHeader(1)
	e.Uint(x)
	if b := EncodeMessage(3, boxMsg{P: &x}); !bytes.Equal(b, e.Bytes()) {
		t.Errorf("boxMsg: %x, want %x", b, e.Bytes())
	}
	for _, pair := range [][2]Msg{
		{Hello{Version: Version}, &Hello{Version: Version}},
		{Error{Msg: "x"}, &Error{Msg: "x"}},
		{Metrics{}, &Metrics{}},
	} {
		if a, b := EncodeMessage(3, pair[0]), EncodeMessage(3, pair[1]); !bytes.Equal(a, b) {
			t.Errorf("%T: by value %x, by pointer %x", pair[0], a, b)
		}
	}
}

// TestHostileArrayBound sends frames whose Jobs array claims as many
// elements as the rest of the frame could hold at JobResult's minimum
// size, the widest element any message carries, over a garbage body.
// The decoder must reject them, reserving no more than the claimed
// elements; one element more must fail at the header, before any
// reservation.
func TestHostileArrayBound(t *testing.T) {
	jobs := planFor(reflect.TypeFor[protean.JobResult]())
	for _, typ := range msgTypes {
		if typ == nil {
			continue
		}
		walkPlans(planFor(typ), func(p *plan) {
			for _, st := range p.steps {
				if st.kind == stepSlice && st.elem.width > jobs.width {
					t.Fatalf("%s is wider than JobResult; aim this test at it", st.elem.typ)
				}
			}
		})
	}

	const frameLen = 64 << 10
	hostile := func(extra int) ([]byte, int) {
		prefix := envelope(KResultOK, func(e *Encoder) {
			e.ArrayHeader(2)
			e.Uint(1)
			e.ArrayHeader(reflect.TypeFor[protean.FleetResult]().NumField())
			e.Str("")
			e.ArrayHeader(0)
		})
		n := (frameLen-len(prefix)-arrayHeaderSize(1<<16))/jobs.min + extra
		e := Encoder{buf: prefix}
		e.ArrayHeader(n)
		return append(e.Bytes(), bytes.Repeat([]byte{0xc1}, frameLen-len(e.Bytes()))...), n
	}
	const slack = 2 << 10 // the message struct and the error
	frame, n := hostile(0)
	var err error
	got := allocBytes(func() { _, _, err = DecodeMessage(frame) })
	if err == nil {
		t.Fatal("DecodeMessage accepted a garbage body")
	}
	// Above 32 KiB the allocator rounds up to whole 8 KiB pages.
	if bound := uint64(n)*uint64(jobs.width) + 8<<10 + slack; got > bound {
		t.Errorf("%d claimed jobs over %d bytes: allocated %d bytes, bound %d", n, frameLen, got, bound)
	}
	frame, _ = hostile(1)
	got = allocBytes(func() { _, _, err = DecodeMessage(frame) })
	if err == nil || got > slack {
		t.Errorf("one job more than fits: err %v, allocated %d bytes, want an error within %d", err, got, slack)
	}
}

// allocBytes reports the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeBound bounds the heap bytes DecodeMessage may allocate for a
// frame of n bytes, from the plans of every message kind. The allocator
// rounds a request of s bytes up to at most max(16, 2s). A slice of k
// elements of width w and min m then allocates at most 2kw+16 bytes for
// its 1+km bytes of frame, a pointer 2w+16 for m bytes, and a string 16
// bytes for its 3 or 2s for its s+1; a nested slice or pointer adds its
// own share of the same bytes. The message struct, its interface copy
// and an error fit in a constant.
func decodeBound(n int) uint64 {
	perByte := 0.0
	for _, typ := range msgTypes {
		if typ != nil {
			perByte = max(perByte, allocPerByte(planFor(typ)))
		}
	}
	return uint64(perByte*float64(n)) + 2<<10
}

// allocPerByte is the most heap bytes decoding p's type allocates per
// frame byte, by the rules decodeBound states.
func allocPerByte(p *plan) float64 {
	worst := 0.0
	for _, st := range p.steps {
		w, m := 0.0, 0.0
		if st.elem != nil {
			w, m = float64(st.elem.width), float64(st.elem.min)
		}
		switch st.kind {
		case stepString:
			worst = max(worst, 16.0/3)
		case stepSlice:
			worst = max(worst, max((2*w+16)/(1+m), 2*w/m)+allocPerByte(st.elem))
		case stepPointer:
			worst = max(worst, (2*w+16)/m+allocPerByte(st.elem))
		}
	}
	return worst
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
