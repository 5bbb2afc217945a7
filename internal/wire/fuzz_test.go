package wire

import (
	"bytes"
	"testing"

	"protean"
)

// FuzzWireDecode feeds arbitrary bytes to the message-envelope decoder
// the daemon exposes to the network and to the generic value decoder
// (value_test.go), and pins the codec's two safety contracts:
//
//  1. arbitrary input never panics or hangs (hostile headers are
//     rejected before allocation, nesting is depth-bounded), and
//  2. any accepted prefix round-trips decode→encode byte-identically,
//     and the re-encoding decodes to the same value again — the
//     canonical-form property that makes frames comparable as bytes;
//
// and it holds the message decoder, accepted frame or not, to the
// allocation bound decodeBound states for the frame's length.
func FuzzWireDecode(f *testing.F) {
	// One seed per value family, plus enveloped messages and hostile
	// shapes; go test replays these (and the committed corpus under
	// testdata/fuzz/) as plain subtests.
	seed := func(build func(e *Encoder)) {
		var e Encoder
		build(&e)
		f.Add(e.Bytes())
	}
	seed(func(e *Encoder) { e.Nil() })
	seed(func(e *Encoder) { e.Bool(true) })
	seed(func(e *Encoder) { e.Uint(5) })
	seed(func(e *Encoder) { e.Uint(1 << 40) })
	seed(func(e *Encoder) { e.Int(-129) })
	seed(func(e *Encoder) { e.Str("proteand") })
	seed(func(e *Encoder) { e.Bin([]byte{0xde, 0xad}) })
	seed(func(e *Encoder) {
		e.ArrayHeader(3)
		e.Uint(1)
		e.Str("two")
		e.ArrayHeader(1)
		e.Int(-3)
	})
	seed(func(e *Encoder) {
		e.MapHeader(2)
		e.Str("k")
		e.Uint(1)
		e.Uint(2)
		e.Nil()
	})
	seed(func(e *Encoder) { AppendMessage(e, 1, Hello{Version: Version}) })
	seed(func(e *Encoder) { AppendMessage(e, 2, Submit{Spec: []byte(`{"nodes":[]}`)}) })
	seed(func(e *Encoder) {
		AppendMessage(e, 3, StatusOK{Job: 9, State: StateRunning})
	})
	seed(func(e *Encoder) { AppendMessage(e, 0, EventGap{Job: 4, Dropped: 1000}) })
	exp := uint32(7)
	seed(func(e *Encoder) { AppendMessage(e, 4, ResultOK{Job: 9, Fleet: sampleFleet(&exp)}) })
	seed(func(e *Encoder) { AppendMessage(e, 5, MetricsOK{Snap: sampleSnapshot()}) })
	seed(func(e *Encoder) {
		AppendMessage(e, 0, Event{Job: 9, Ev: protean.Event{
			Kind: protean.EventProcessExit, Label: "echo.0", PID: 2, Cycle: 1 << 33, Code: 7, OK: true,
		}})
	})
	seed(func(e *Encoder) {
		AppendMessage(e, 0, Event{Job: 9, Ev: protean.Event{
			Kind: protean.EventJobDone, Label: "alpha-hw-nosoft x2", Cycle: 300894, Class: 2, OK: true,
		}})
	})
	seed(func(e *Encoder) { AppendMessage(e, 6, ResultOK{Job: 9, Fleet: shareFleet()}) })
	seed(func(e *Encoder) { AppendMessage(e, 7, ResultOK{Job: 9, Fleet: pairFleet()}) })
	for _, c := range hostileRefs(f) {
		f.Add(c.frame)
	}
	f.Add([]byte{0x92, tagRef, 0x00, tagRef, 0x05}) // generic references
	f.Add([]byte{0xdd, 0xff, 0xff, 0xff, 0xff})     // hostile array32 count
	f.Add([]byte{0xcc, 0x05})                       // non-canonical uint
	f.Add(bytes.Repeat([]byte{0x91}, MaxDepth+8))   // deep nesting

	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := DecodeValue(data)
		if err == nil {
			if n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			var e Encoder
			if err := e.EncodeValue(v); err != nil {
				t.Fatalf("re-encode of accepted value: %v", err)
			}
			if !bytes.Equal(e.Bytes(), data[:n]) {
				t.Fatalf("decode→encode not byte-identical:\n in  %x\n out %x", data[:n], e.Bytes())
			}
			v2, n2, err := DecodeValue(e.Bytes())
			if err != nil || n2 != n {
				t.Fatalf("re-decode of canonical bytes failed: n=%d err=%v", n2, err)
			}
			var e2 Encoder
			if err := e2.EncodeValue(v2); err != nil || !bytes.Equal(e2.Bytes(), e.Bytes()) {
				t.Fatalf("second round-trip diverged (err=%v)", err)
			}
		}

		// The envelope decoder must hold the same never-panic contract,
		// and an accepted message must re-encode byte-identically when the
		// payload is exactly one envelope.
		var (
			id uint64
			m  Msg
		)
		if got, bound := allocBytes(func() { id, m, err = DecodeMessage(data) }), decodeBound(len(data)); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err == nil {
			re := EncodeMessage(id, m)
			if !bytes.Equal(re, data) {
				t.Fatalf("message decode→encode not byte-identical:\n in  %x\n out %x", data, re)
			}
		}
	})
}
