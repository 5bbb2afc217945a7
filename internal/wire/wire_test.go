package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"protean"
	"protean/internal/cluster"
	"protean/internal/obs"
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
			Cycle: 1 << 40, Procs: 2, Class: 2, Code: 7, OK: true,
		}},
		Event{Job: 42, Ev: protean.Event{
			Kind: protean.EventFleetDone, Cycle: 99, Procs: 6, OK: true, Message: "fleet done",
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
// object decoder's shape, range, allocation and reference checks.
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
	for name, c := range hostileRefs(t) {
		if _, _, err := DecodeMessage(c.frame); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: DecodeMessage(%x): error %v, want %q", name, c.frame, err, c.err)
		}
	}
}

// pairFleet is two jobs sharing one Run whose one process has an
// Expected: the message numbers the Expected 0 and the Run 1, and the
// second job's Run frames as a reference to 1.
func pairFleet() *protean.FleetResult {
	exp := uint32(7)
	run := &protean.Result{Cycles: 10, Procs: []protean.ProcResult{{PID: 1, Name: "a", Expected: &exp}}}
	return &protean.FleetResult{Jobs: []protean.JobResult{{ID: 0, Run: run}, {ID: 1, Run: run}}}
}

// refCase is a frame the decoder must reject and the text its error
// must hold.
type refCase struct {
	frame []byte
	err   string
}

// hostileRefs returns ResultOK frames whose back-references the decoder
// must reject, built by editing pairFleet's frame.
func hostileRefs(t testing.TB) map[string]refCase {
	t.Helper()
	edit := func(f func(jobs Array)) []byte {
		v, _, err := DecodeValue(EncodeMessage(1, ResultOK{Job: 1, Fleet: pairFleet()}))
		if err != nil {
			t.Fatal(err)
		}
		fleet := v.(Array)[2].(Array)[1].(Array)
		jobs := fleet[2].(Array)
		if last := jobs[1].(Array); last[len(last)-1] != Ref(1) {
			t.Fatalf("second job's Run frames as %v, want Ref(1)", last[len(last)-1])
		}
		f(jobs)
		var e Encoder
		if err := e.EncodeValue(v); err != nil {
			t.Fatal(err)
		}
		return e.Bytes()
	}
	setRun := func(jobs Array, job int, run Value) {
		a := jobs[job].(Array)
		a[len(a)-1] = run
	}
	wide := edit(func(Array) {})
	if i := bytes.Index(wide, []byte{tagRef, 1}); i < 0 || bytes.Count(wide, []byte{tagRef}) != 1 {
		t.Fatalf("pairFleet frame %x has no single reference", wide)
	} else {
		wide = slices.Insert(wide, i+1, tagUint8)
	}
	return map[string]refCase{
		"reference before any pointee": {envelope(KResultOK, func(e *Encoder) {
			e.ArrayHeader(2)
			e.Uint(1)
			e.Ref(0)
		}), "reference to pointee 0 of 0 finished"},
		"reference index equals pointees finished": {
			edit(func(jobs Array) { setRun(jobs, 1, Ref(2)) }), "reference to pointee 2 of 2 finished"},
		"reference to another plan": {
			edit(func(jobs Array) { setRun(jobs, 1, Ref(0)) }), "reference to a uint32 where a protean.Result is expected"},
		"non-canonical reference index": {wide, "non-canonical"},
		"reference to the pointee being decoded": {edit(func(jobs Array) {
			run := jobs[0].(Array)[len(jobs[0].(Array))-1].(Array)
			run[len(run)-1] = Ref(1) // the Run's own Metrics; the Run will be 1
		}), "reference to pointee 1 of 1 finished"},
	}
}

// TestSharedPointers checks the back-reference rule on the share-group
// fixture: the Runs a group shares frame once and decode to one pointer
// again, and the same fleet with equal but distinct Runs frames in full.
func TestSharedPointers(t *testing.T) {
	fleet := shareFleet()
	payload := EncodeMessage(1, ResultOK{Job: 1, Fleet: fleet})
	v, _, err := DecodeValue(payload)
	if err != nil {
		t.Fatal(err)
	}
	if refs := countRefs(v); refs != len(fleet.Jobs)-3 {
		t.Errorf("share fixture frames %d references, want %d", refs, len(fleet.Jobs)-3)
	}
	full := EncodeMessage(1, ResultOK{Job: 1, Fleet: unshare(fleet)})
	if v, _, err := DecodeValue(full); err != nil || countRefs(v) != 0 {
		t.Errorf("distinct equal Runs: %d references (err %v), want 0", countRefs(v), err)
	}
	if 3*len(payload) > len(full) {
		t.Errorf("share fixture frames to %d bytes, %d in full: want under a third", len(payload), len(full))
	}
	for name, b := range map[string][]byte{"shared": payload, "distinct": full} {
		_, m, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := m.(ResultOK).Fleet
		want := aliasedRuns(fleet)
		if name == "distinct" {
			want = nil
		}
		if !slices.Equal(aliasedRuns(got), want) {
			t.Errorf("%s: decoded Runs alias %d job pairs, want %d", name, len(aliasedRuns(got)), len(want))
		}
		if !reflect.DeepEqual(got, fleet) {
			t.Errorf("%s: decoded fleet differs", name)
		}
		if re := EncodeMessage(1, m); !bytes.Equal(re, b) {
			t.Errorf("%s: re-encode differs", name)
		}
	}

	// sampleFleet's fleet-level Metrics is its first Run's.
	exp := uint32(7)
	_, m, err := DecodeMessage(EncodeMessage(1, ResultOK{Job: 1, Fleet: sampleFleet(&exp)}))
	if err != nil {
		t.Fatal(err)
	}
	if fr := m.(ResultOK).Fleet; fr.Metrics == nil || fr.Metrics != fr.Jobs[0].Run.Metrics {
		t.Error("sampleFleet's shared Metrics decoded to two pointers")
	}
}

// countRefs counts the back-references in a generic value.
func countRefs(v Value) int {
	switch v := v.(type) {
	case Ref:
		return 1
	case Array:
		n := 0
		for _, el := range v {
			n += countRefs(el)
		}
		return n
	}
	return 0
}

// zeroMsg's pointees have no size: distinct allocations of them may
// share an address, so they always frame in full.
type zeroMsg struct{ A, B *struct{} }

func (zeroMsg) Kind() uint64 { return 97 }

// TestZeroSizePointees checks that pointers to zero-size values never
// become references, and that the decoder does not number them.
func TestZeroSizePointees(t *testing.T) {
	z := new(struct{})
	want := envelope(97, func(e *Encoder) {
		e.ArrayHeader(2)
		e.ArrayHeader(0)
		e.ArrayHeader(0)
	})
	if got := EncodeMessage(1, zeroMsg{A: z, B: z}); !bytes.Equal(got, want) {
		t.Errorf("zeroMsg: %x, want %x", got, want)
	}
	ref := envelope(97, func(e *Encoder) {
		e.ArrayHeader(2)
		e.ArrayHeader(0)
		e.Ref(0)
	})
	if _, err := decodeAs[zeroMsg](ref); err == nil {
		t.Error("a reference to a zero-size pointee was accepted")
	}
}

// TestReferenceCycleRejected frames a treeMsg whose Up names the
// pointee it sits in. The plan matches; only the rule that a reference
// names a finished pointee rejects it, which keeps decoded graphs
// acyclic.
func TestReferenceCycleRejected(t *testing.T) {
	frame := func(up Value) []byte {
		var e Encoder
		e.ArrayHeader(3)
		e.Uint(99)
		e.Uint(1)
		// Up's pointee holds one kid whose Up is pointee 0, then its
		// own Up, which would be pointee 1.
		err := e.EncodeValue(Array{"a", Array{}, Array{"b", Array{Array{"c", Array{}, Array{"d", Array{}, nil}}}, up}})
		if err != nil {
			t.Fatal(err)
		}
		return e.Bytes()
	}
	m, err := decodeAs[treeMsg](frame(Ref(0)))
	if err != nil {
		t.Fatalf("reference to a finished pointee: %v", err)
	}
	if m.Up.Up != m.Up.Kids[0].Up {
		t.Error("reference did not resolve to the pointee it names")
	}
	if _, err := decodeAs[treeMsg](frame(Ref(1))); err == nil {
		t.Error("a reference to the pointee being decoded was accepted")
	}
}

// decodeAs decodes an enveloped T, a message type msgTypes need not
// list, through its plan.
func decodeAs[T Msg](payload []byte) (T, error) {
	var m T
	d := NewDecoder(payload)
	if err := d.ArrayHeaderExact(3); err != nil {
		return m, err
	}
	if _, err := d.Uint(); err != nil {
		return m, err
	}
	if _, err := d.Uint(); err != nil {
		return m, err
	}
	r := decRefs{start: d.pos}
	defer r.release()
	if err := planFor(reflect.TypeFor[T]()).decode(d, &r, unsafe.Pointer(&m)); err != nil {
		return m, err
	}
	if !d.Done() {
		return m, fmt.Errorf("%d trailing bytes", len(d.Rest()))
	}
	return m, nil
}

// TestReferenceExpansionCap frames fleets whose first job's Run holds
// a 64 KiB Metrics and whose other jobs share a second Run that refers
// back to that Metrics. A frame of at most 84 KiB then stands for jobs
// times 64 KiB, through references nested two deep. The decoder must
// accept the fleet while that expansion fits in MaxFrame and reject it
// past that, counting what the nested reference stands for.
func TestReferenceExpansionCap(t *testing.T) {
	snap := protean.Metrics{Metrics: []obs.Metric{{Name: strings.Repeat("m", 64<<10)}}}
	fleet := func(jobs int) *protean.FleetResult {
		first := &protean.Result{Cycles: 1, Metrics: &snap}
		rest := &protean.Result{Cycles: 2, Metrics: &snap}
		fr := &protean.FleetResult{Jobs: []protean.JobResult{{ID: 0, Run: first}}}
		for i := 1; i < jobs; i++ {
			fr.Jobs = append(fr.Jobs, protean.JobResult{ID: i, Run: rest})
		}
		return fr
	}
	for _, c := range []struct {
		jobs int
		ok   bool
	}{{MaxFrame / (66 << 10), true}, {MaxFrame / (64 << 10), false}} {
		payload := EncodeMessage(1, ResultOK{Job: 1, Fleet: fleet(c.jobs)})
		if len(payload) > 128<<10 {
			t.Fatalf("%d jobs frame to %d bytes, want a small frame", c.jobs, len(payload))
		}
		_, m, err := DecodeMessage(payload)
		switch {
		case c.ok && err != nil:
			t.Errorf("%d jobs: %v", c.jobs, err)
		case c.ok:
			if jobs := m.(ResultOK).Fleet.Jobs; jobs[c.jobs-1].Run.Metrics != jobs[0].Run.Metrics {
				t.Errorf("%d jobs: the shared Metrics decoded to two pointers", c.jobs)
			}
		case err == nil || !strings.Contains(err.Error(), "references expand the message past"):
			t.Errorf("%d jobs (%d bytes): error %v, want the expansion cap", c.jobs, len(payload), err)
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
			p.encode(&e, &encRefs{}, zero)
			if size := p.size(&encRefs{}, zero); p.min != len(e.Bytes()) || size != p.min {
				t.Errorf("kind %d: %s: min %d, size pass %d, zero value encodes to %d bytes",
					kind, p.typ, p.min, size, len(e.Bytes()))
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
// its 1+km bytes of frame, a pointee framed in full 2w+16 for m bytes,
// and a string 16 bytes for its 3 or 2s for its s+1; a nested slice or
// pointer adds its own share of the same bytes. A back-reference
// allocates nothing. A pointee framed in full also takes a reference
// table entry; the table starts at 16 entries and doubles, so with an
// empty pool it allocates at most four entries per entry. The message
// struct, its interface copy, an error and the table's first 16 entries
// fit in a constant.
func decodeBound(n int) uint64 {
	perByte := 0.0
	for _, typ := range msgTypes {
		if typ != nil {
			perByte = max(perByte, allocPerByte(planFor(typ)))
		}
	}
	return uint64(perByte*float64(n)) + 3<<10
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
			worst = max(worst, (2*w+16+4*float64(unsafe.Sizeof(decRef{})))/m+allocPerByte(st.elem))
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

// shareFleet builds a synthetic FleetResult shaped like a daemon fleet's
// reply: 96 jobs on 16 nodes in three share groups of 32, every member
// of a group pointing at its group's one Run, as a share-mode scenario
// stores them. Each Run has two processes, each with its own Expected.
func shareFleet() *protean.FleetResult {
	kinds := []string{"alpha/gate", "twofish/hw-nosoft", "echo/hw-nosoft"}
	runs := make([]*protean.Result, len(kinds))
	for k, w := range kinds {
		run := &protean.Result{
			Cycles: 6010 + uint64(k)*977, Completion: 6010 + uint64(k)*977,
			CIS:    protean.CISStats{Faults: 2, Loads: 2, ConfigBytes: 108172, ConfigCycles: 136},
			Kernel: protean.KernelStats{ContextSwitches: 6, TimerIRQs: 4, Syscalls: 4, KernelCycles: 14, MaxIRQLatency: 3, SumIRQLatency: 12},
			RFU:    protean.RFUStats{HWDispatches: 200, Faults: 2, Completions: 200, ExecCycles: 1600, ConfigLoads: 2},
			TLB1:   protean.TLBStats{Lookups: 202, Misses: 2},
			TLB2:   protean.TLBStats{Lookups: 2, Misses: 2},
		}
		for p := range 2 {
			exp := uint32(0xcd735a93 + k)
			run.Procs = append(run.Procs, protean.ProcResult{
				PID: uint32(p + 1), Name: fmt.Sprintf("%s#%d", w, p+1), Workload: w,
				State: protean.ProcExited, ExitCode: exp, Expected: &exp,
				Start: 1 + uint64(p)*1254, Completion: 5513 + uint64(p)*497, Switches: 3, Faults: 1, Instrs: 1113,
			})
		}
		runs[k] = run
	}
	fr := &protean.FleetResult{Policy: "config-affinity"}
	for n := range 16 {
		fr.Nodes = append(fr.Nodes, protean.NodeResult{Node: n, ClockScale: 1, Jobs: 6, Busy: 67000 + uint64(n)*311,
			ColdLoads: 1, WarmHits: 5, FetchCycles: 68, Completion: 190000 + uint64(n)*1021})
	}
	for i := range 96 {
		k := i / 32
		arrival := uint64(i) * 1987
		fr.Jobs = append(fr.Jobs, protean.JobResult{
			ID: i, Label: kinds[k] + " x2", Workload: kinds[k],
			Placement: cluster.Placement{Node: i % 16, Arrival: arrival, Start: arrival + 905, Completion: arrival + 6983,
				ColdLoads: uint64(i % 2), WarmHits: uint64(1 - i%2), FetchCycles: 68 * uint64(i%2), Latency: 6078},
			Run: runs[k],
		})
	}
	fr.Totals = cluster.Totals{Makespan: 640919, Busy: 1077328, ColdLoads: 4, WarmHits: 124, FetchCycles: 272,
		Latency: protean.LatencyStats{Jobs: 96, Mean: 155399, P50: 109040, P95: 452738, P99: 511182, Max: 511182}}
	return fr
}

// unshare returns a copy of fr whose jobs each hold their own deep copy
// of their Run: equal contents, no shared pointer.
func unshare(fr *protean.FleetResult) *protean.FleetResult {
	out := *fr
	out.Jobs = slices.Clone(fr.Jobs)
	for i := range out.Jobs {
		if r := out.Jobs[i].Run; r != nil {
			run := *r
			run.Procs = slices.Clone(r.Procs)
			for j := range run.Procs {
				if e := run.Procs[j].Expected; e != nil {
					exp := *e
					run.Procs[j].Expected = &exp
				}
			}
			out.Jobs[i].Run = &run
		}
	}
	return &out
}

// aliasedRuns lists the job pairs i < j whose Runs are one non-nil
// pointer.
func aliasedRuns(fr *protean.FleetResult) [][2]int {
	var pairs [][2]int
	for i := range fr.Jobs {
		for j := i + 1; j < len(fr.Jobs); j++ {
			if fr.Jobs[i].Run != nil && fr.Jobs[i].Run == fr.Jobs[j].Run {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	return pairs
}

func sampleSnapshot() protean.Metrics {
	return protean.Metrics{Metrics: []protean.MetricPoint{
		{Name: "protean_a_total", Kind: "counter", Help: "a", Value: 12},
		{Name: "protean_b", Kind: "gauge", Gauge: -3},
		{Name: "protean_c_cycles", Kind: "histogram", Bounds: []uint64{10, 100}, Counts: []uint64{1, 2, 3}, Sum: 444, Count: 6},
	}}
}
