package fabric

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// runProtocolSim drives a netlist simulator through the PFU execution
// protocol: init high for one cycle, clock until done, return the sampled
// output and the cycle count.
func runProtocolSim(t *testing.T, s *Sim, a, b uint32, max int) (uint32, int) {
	t.Helper()
	s.Reset()
	if err := s.SetInput("a", uint64(a)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetInput("b", uint64(b)); err != nil {
		t.Fatal(err)
	}
	s.SetInput("init", 1)
	for cyc := 1; cyc <= max; cyc++ {
		s.Eval()
		done, err := s.Output("done")
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Output("out")
		if err != nil {
			t.Fatal(err)
		}
		if done != 0 {
			return uint32(out), cyc
		}
		s.Step()
		s.SetInput("init", 0)
	}
	t.Fatalf("circuit did not complete within %d cycles", max)
	return 0, 0
}

func newSimT(t *testing.T, n *Netlist) *Sim {
	t.Helper()
	s, err := NewSim(n)
	if err != nil {
		t.Fatalf("%s: %v", n.Name, err)
	}
	return s
}

func TestPassthrough32(t *testing.T) {
	s := newSimT(t, Passthrough32())
	for _, v := range []uint32{0, 1, 0xDEADBEEF, 0xFFFFFFFF} {
		out, cyc := runProtocolSim(t, s, v, ^v, 4)
		if out != v || cyc != 1 {
			t.Errorf("pass(%#x) = %#x in %d cycles", v, out, cyc)
		}
	}
}

func TestXor32(t *testing.T) {
	s := newSimT(t, Xor32())
	f := func(a, b uint32) bool {
		out, cyc := runProtocolSim(t, s, a, b, 4)
		return out == a^b && cyc == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdder32(t *testing.T) {
	s := newSimT(t, Adder32())
	cases := [][2]uint32{
		{0, 0}, {1, 1}, {0xFFFFFFFF, 1}, {0x80000000, 0x80000000},
	}
	for _, c := range cases {
		out, _ := runProtocolSim(t, s, c[0], c[1], 4)
		if out != c[0]+c[1] {
			t.Errorf("add(%#x,%#x) = %#x, want %#x", c[0], c[1], out, c[0]+c[1])
		}
	}
	f := func(a, b uint32) bool {
		out, _ := runProtocolSim(t, s, a, b, 4)
		return out == a+b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPopcount32(t *testing.T) {
	s := newSimT(t, Popcount32())
	for _, v := range []uint32{0, 1, 0xFFFFFFFF, 0x80000001, 0xAAAAAAAA} {
		out, _ := runProtocolSim(t, s, v, 0, 4)
		if out != RefPopcount32(v) {
			t.Errorf("popcount(%#x) = %d, want %d", v, out, RefPopcount32(v))
		}
	}
	f := func(a uint32) bool {
		out, _ := runProtocolSim(t, s, a, 0, 4)
		return out == RefPopcount32(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCRC32Step(t *testing.T) {
	s := newSimT(t, CRC32Step())
	f := func(crc uint32, data byte) bool {
		out, _ := runProtocolSim(t, s, crc, uint32(data), 4)
		return out == RefCRC32Step(crc, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCRC32StepChain(t *testing.T) {
	// Chaining byte steps over "123456789" must give the classic check
	// value 0xCBF43926.
	s := newSimT(t, CRC32Step())
	crc := uint32(0xFFFFFFFF)
	for _, c := range []byte("123456789") {
		out, _ := runProtocolSim(t, s, crc, uint32(c), 4)
		crc = out
	}
	if crc^0xFFFFFFFF != 0xCBF43926 {
		t.Errorf("CRC32(\"123456789\") = %#x, want 0xCBF43926", crc^0xFFFFFFFF)
	}
}

func TestSatAdd16(t *testing.T) {
	s := newSimT(t, SatAdd16())
	cases := [][2]uint32{
		{0x7FFF, 1}, {0x8000, 0xFFFF}, {0x8000, 0x8000}, {1, 2},
		{0xFFFF, 1}, {0x7FFF, 0x7FFF},
	}
	for _, c := range cases {
		out, _ := runProtocolSim(t, s, c[0], c[1], 4)
		if out != RefSatAdd16(c[0], c[1]) {
			t.Errorf("satadd(%#x,%#x) = %#x, want %#x", c[0], c[1], out, RefSatAdd16(c[0], c[1]))
		}
	}
	f := func(a, b uint16) bool {
		out, _ := runProtocolSim(t, s, uint32(a), uint32(b), 4)
		return out == RefSatAdd16(uint32(a), uint32(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeqMul16(t *testing.T) {
	s := newSimT(t, SeqMul16())
	cases := [][2]uint32{
		{0, 0}, {1, 1}, {0xFFFF, 0xFFFF}, {3, 7}, {0x8000, 2}, {12345, 54321},
	}
	for _, c := range cases {
		out, cyc := runProtocolSim(t, s, c[0], c[1], 32)
		if out != RefSeqMul16(c[0], c[1]) {
			t.Errorf("mul(%d,%d) = %d, want %d", c[0], c[1], out, RefSeqMul16(c[0], c[1]))
		}
		if cyc != SeqMul16Cycles {
			t.Errorf("mul latency = %d, want %d", cyc, SeqMul16Cycles)
		}
	}
	f := func(a, b uint16) bool {
		out, _ := runProtocolSim(t, s, uint32(a), uint32(b), 32)
		return out == uint32(a)*uint32(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSeqMul16BackToBack(t *testing.T) {
	// Two invocations on the same simulator: state from the first must not
	// leak into the second because init reloads everything.
	s := newSimT(t, SeqMul16())
	out1, _ := runProtocolSim(t, s, 100, 200, 32)
	out2, _ := runProtocolSim(t, s, 321, 123, 32)
	if out1 != 20000 || out2 != 321*123 {
		t.Errorf("back-to-back products %d, %d", out1, out2)
	}
}

func TestAlphaBlend(t *testing.T) {
	s := newSimT(t, AlphaBlend())
	cases := [][2]uint32{
		{0xFF00FF00 | 0xFF<<24, 0x00FF00FF},
		{0x00000000, 0xFFFFFFFF},
		{0xFF000000 | 0x00123456, 0x00654321},
		{0x80ABCDEF, 0x00102030},
	}
	for _, c := range cases {
		out, cyc := runProtocolSim(t, s, c[0], c[1], 16)
		if out != RefAlphaBlend(c[0], c[1]) {
			t.Errorf("blend(%#x,%#x) = %#x, want %#x", c[0], c[1], out, RefAlphaBlend(c[0], c[1]))
		}
		if cyc != AlphaBlendCycles {
			t.Errorf("blend latency = %d, want %d", cyc, AlphaBlendCycles)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		a, b := rng.Uint32(), rng.Uint32()
		out, _ := runProtocolSim(t, s, a, b, 16)
		if out != RefAlphaBlend(a, b) {
			t.Fatalf("blend(%#x,%#x) = %#x, want %#x", a, b, out, RefAlphaBlend(a, b))
		}
	}
}

func TestRefAlphaBlendEndpoints(t *testing.T) {
	// alpha=0 leaves dst; alpha=255 moves within 1 LSB of src.
	src := uint32(0x00C08040)
	dst := uint32(0x00103050)
	if got := RefAlphaBlend(src, dst); got&0xFFFFFF != dst&0xFFFFFF {
		t.Errorf("alpha=0: got %#x, want dst %#x", got, dst)
	}
	got := RefAlphaBlend(src|0xFF000000, dst)
	for lane := 0; lane < 3; lane++ {
		sh := uint(lane * 8)
		g := int32(got >> sh & 0xFF)
		s := int32(src >> sh & 0xFF)
		if g-s > 1 || s-g > 1 {
			t.Errorf("alpha=255 lane %d: got %d, want ~%d", lane, g, s)
		}
	}
}

func TestCircuitResourceBudget(t *testing.T) {
	// Every stock circuit must fit the 500-CLB PFU of the ProteanARM after
	// optimisation and LUT/FF packing.
	for _, mk := range []func() *Netlist{
		Passthrough32, Xor32, Adder32, Popcount32, CRC32Step, SatAdd16,
		SeqMul16, AlphaBlend, BarrelShift32, LFSR32,
	} {
		n := mk()
		Optimize(n)
		_, stats, err := Place(n, DefaultPFUSpec)
		if err != nil {
			t.Errorf("%s does not fit: %v", n.Name, err)
			continue
		}
		if stats.Cells > DefaultPFUSpec.CLBs() {
			t.Errorf("%s uses %d cells", n.Name, stats.Cells)
		}
		t.Logf("%-12s %3d cells (%.0f%%), wirelength %d",
			n.Name, stats.Cells, stats.Utilization*100, stats.Wirelength)
	}
}

func TestBarrelShift32(t *testing.T) {
	s := newSimT(t, BarrelShift32())
	f := func(a uint32, b uint8) bool {
		bv := uint32(b) & 63
		out, cyc := runProtocolSim(t, s, a, bv, 4)
		return out == RefBarrelShift32(a, bv) && cyc == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Edges.
	for _, c := range [][2]uint32{{0xFFFFFFFF, 31}, {0xFFFFFFFF, 32 | 31}, {1, 0}, {0x80000000, 32 | 1}} {
		out, _ := runProtocolSim(t, s, c[0], c[1], 4)
		if out != RefBarrelShift32(c[0], c[1]) {
			t.Errorf("barrel(%#x,%d) = %#x, want %#x", c[0], c[1], out, RefBarrelShift32(c[0], c[1]))
		}
	}
}

func TestLFSR32(t *testing.T) {
	s := newSimT(t, LFSR32())
	// Multi-cycle: b&31+1 steps per invocation.
	for _, c := range [][2]uint32{{1, 0}, {1, 4}, {0xDEAD, 31}, {0, 7}} {
		out, cyc := runProtocolSim(t, s, c[0], c[1], 64)
		if out != RefLFSR32(c[0], c[1]) {
			t.Errorf("lfsr(%#x,%d) = %#x, want %#x", c[0], c[1], out, RefLFSR32(c[0], c[1]))
		}
		if cyc != int(c[1]&31)+1 {
			t.Errorf("lfsr latency = %d, want %d", cyc, c[1]&31+1)
		}
	}
	f := func(a uint32, b uint8) bool {
		out, _ := runProtocolSim(t, s, a, uint32(b&31), 64)
		return out == RefLFSR32(a, uint32(b&31))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLFSRNeverZero(t *testing.T) {
	// A maximal LFSR seeded nonzero never reaches zero.
	state := uint32(1)
	for i := 0; i < 10000; i++ {
		state = RefLFSR32(state, 0)
		if state == 0 {
			t.Fatalf("LFSR hit zero after %d steps", i)
		}
	}
}

// Reference models of the stock circuits, for the tests that check the
// gate-level netlists against them.

// RefPopcount32 is the reference for Popcount32.
func RefPopcount32(a uint32) uint32 {
	n := uint32(0)
	for ; a != 0; a &= a - 1 {
		n++
	}
	return n
}

// RefCRC32Step is the reference for CRC32Step.
func RefCRC32Step(crc uint32, data byte) uint32 {
	crc ^= uint32(data)
	for i := 0; i < 8; i++ {
		if crc&1 != 0 {
			crc = crc>>1 ^ CRC32Poly
		} else {
			crc >>= 1
		}
	}
	return crc
}

// RefSatAdd16 is the reference for SatAdd16.
func RefSatAdd16(a, b uint32) uint32 {
	x := int32(int16(a))
	y := int32(int16(b))
	s := x + y
	if s > 0x7FFF {
		s = 0x7FFF
	}
	if s < -0x8000 {
		s = -0x8000
	}
	return uint32(s)
}

// RefSeqMul16 is the reference for SeqMul16.
func RefSeqMul16(a, b uint32) uint32 {
	return (a & 0xFFFF) * (b & 0xFFFF)
}

// RefBarrelShift32 is the reference for BarrelShift32.
func RefBarrelShift32(a, b uint32) uint32 {
	amt := b & 31
	if b&32 != 0 {
		return a >> amt
	}
	return a << amt
}

// RefLFSR32 is the reference for LFSR32: steps the register b&31 + 1
// times from state (or the canonical seed when state is 0).
func RefLFSR32(state, b uint32) uint32 {
	if state == 0 {
		state = 1
	}
	steps := b&31 + 1
	for i := uint32(0); i < steps; i++ {
		fb := (state>>31 ^ state>>21 ^ state>>1 ^ state) & 1
		state = state<<1 | fb
	}
	return state
}
