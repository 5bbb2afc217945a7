package fabric

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestBitstreamSizes(t *testing.T) {
	// The paper (§4.1): "each custom instruction requires 54 Kbytes of data
	// to be transferred for a configuration". Our 500-CLB static image is
	// 54,086 bytes; its state frame group is 63 bytes — the two-orders-of-
	// magnitude split that motivates the design.
	if got := StaticBytes(DefaultPFUSpec); got != 54086 {
		t.Errorf("StaticBytes = %d, want 54086", got)
	}
	if got := StateBytes(DefaultPFUSpec); got != 63 {
		t.Errorf("StateBytes = %d, want 63", got)
	}
}

func TestBitstreamStaticRoundTrip(t *testing.T) {
	n := SeqMul16()
	Optimize(n)
	cfg, _, err := Place(n, DefaultPFUSpec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeStatic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != StaticBytes(DefaultPFUSpec) {
		t.Errorf("encoded %d bytes, want %d", len(data), StaticBytes(DefaultPFUSpec))
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := EncodeStatic(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoding a decoded image must be byte identical")
	}
	// The decoded configuration must behave identically.
	p1, err := NewPFU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPFU(decoded)
	if err != nil {
		t.Fatal(err)
	}
	out1, c1 := pfuRun(t, p1, 123, 456, 32)
	out2, c2 := pfuRun(t, p2, 123, 456, 32)
	if out1 != out2 || c1 != c2 {
		t.Fatalf("decoded config behaves differently: (%d,%d) vs (%d,%d)", out1, c1, out2, c2)
	}
}

func TestBitstreamRejectsCorruption(t *testing.T) {
	n := Xor32()
	cfg, _, err := Place(n, ArraySpec{W: 8, H: 8})
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeStatic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte){
		"magic":     func(d []byte) { d[0] = 'X' },
		"version":   func(d []byte) { d[4] = 9 },
		"truncated": nil,
		"geometry":  func(d []byte) { d[6], d[7] = 0xFF, 0xFF },
	}
	for name, corrupt := range cases {
		d := append([]byte(nil), good...)
		if corrupt == nil {
			d = d[:len(d)-1]
		} else {
			corrupt(d)
		}
		if _, err := Decode(d); err == nil {
			t.Errorf("%s corruption not detected", name)
		}
	}
}

// TestDecodeRejectsNonCanonical: Decode accepts only the bytes
// EncodeStatic writes, so one configuration has one bitstream and one
// ConfigKey. Each case alters a valid static image in one header field:
// the section flags, the state length (alone, or with the state section
// an image once carried), or the padding.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	cfg := placeT(t, Xor32())
	good, err := EncodeStatic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(good); err != nil {
		t.Fatalf("the unaltered image: %v", err)
	}
	state := StateBytes(cfg.Spec)
	cases := []struct {
		name  string
		alter func(d []byte) []byte
	}{
		{"no_flags", func(d []byte) []byte { d[5] = 0; return d }},
		{"unknown_flag", func(d []byte) []byte { d[5] |= 1 << 7; return d }},
		{"state_length", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[14:], 1)
			return d
		}},
		{"state_section", func(d []byte) []byte {
			d[5] |= 1 << 1
			binary.LittleEndian.PutUint32(d[14:], uint32(state))
			return append(d, make([]byte, state)...)
		}},
		{"state_only", func(d []byte) []byte {
			d[5] = 1 << 1
			binary.LittleEndian.PutUint32(d[10:], 0)
			binary.LittleEndian.PutUint32(d[14:], uint32(state))
			return append(d[:headerBytes], make([]byte, state)...)
		}},
		{"padding_18", func(d []byte) []byte { d[18] = 1; return d }},
		{"padding_19", func(d []byte) []byte { d[19] = 0x80; return d }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.alter(bytes.Clone(good))); err == nil {
				t.Fatal("non-canonical bitstream accepted")
			}
		})
	}
}

func TestBitstreamRejectsWireEscape(t *testing.T) {
	// A bitstream whose routing selects point outside the wire enumeration
	// must be rejected — the mux-routing safety property.
	n := Xor32()
	cfg, _, err := Place(n, ArraySpec{W: 8, H: 8})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeStatic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First CLB InSel[0] lives at header+outsel+2.
	off := headerBytes + outSelBytes + 2
	data[off] = 0xFF
	data[off+1] = 0xFF
	if _, err := Decode(data); err == nil {
		t.Fatal("wire escape not detected")
	}
}

func TestStateBytesRounding(t *testing.T) {
	if got := StateBytes(ArraySpec{W: 1, H: 1}); got != 1 {
		t.Errorf("1 CLB needs 1 byte, got %d", got)
	}
	if got := StateBytes(ArraySpec{W: 4, H: 2}); got != 1 {
		t.Errorf("8 CLBs need 1 byte, got %d", got)
	}
	if got := StateBytes(ArraySpec{W: 3, H: 3}); got != 2 {
		t.Errorf("9 CLBs need 2 bytes, got %d", got)
	}
}
