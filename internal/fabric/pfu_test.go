package fabric

import (
	"math/rand"
	"testing"
)

// pfuRun drives a configured PFU through the execution protocol.
func pfuRun(t *testing.T, p *PFU, a, b uint32, max int) (uint32, int) {
	t.Helper()
	init := true
	for cyc := 1; cyc <= max; cyc++ {
		out, done := p.Step(a, b, init)
		init = false
		if done {
			return out, cyc
		}
	}
	t.Fatalf("PFU did not complete within %d cycles", max)
	return 0, 0
}

func placeT(t *testing.T, n *Netlist) *ArrayConfig {
	t.Helper()
	Optimize(n)
	cfg, _, err := Place(n, DefaultPFUSpec)
	if err != nil {
		t.Fatalf("place %s: %v", n.Name, err)
	}
	return cfg
}

func newPFUT(t *testing.T, n *Netlist) *PFU {
	t.Helper()
	p, err := NewPFU(placeT(t, n))
	if err != nil {
		t.Fatalf("NewPFU %s: %v", n.Name, err)
	}
	return p
}

// TestPFUMatchesSim cross-checks the placed-array simulator against the
// netlist simulator for every stock circuit over random stimulus. This is
// the end-to-end proof that placement and routing preserve the circuit.
func TestPFUMatchesSim(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, mk := range []func() *Netlist{
		Passthrough32, Xor32, Adder32, Popcount32, CRC32Step, SatAdd16,
		SeqMul16, AlphaBlend, BarrelShift32, LFSR32,
	} {
		ref := mk()
		sim := newSimT(t, ref)
		pfu := newPFUT(t, mk())
		for trial := 0; trial < 30; trial++ {
			a, b := rng.Uint32(), rng.Uint32()
			wantOut, wantCyc := runProtocolSim(t, sim, a, b, 64)
			pfu.Reset()
			gotOut, gotCyc := pfuRun(t, pfu, a, b, 64)
			if gotOut != wantOut || gotCyc != wantCyc {
				t.Fatalf("%s(%#x,%#x): PFU (%#x,%d) vs sim (%#x,%d)",
					ref.Name, a, b, gotOut, gotCyc, wantOut, wantCyc)
			}
		}
	}
}

// TestPFUInterruptResume exercises the §4.4 mechanism: stop clocking a
// sequential instruction mid-flight, then continue with init low; the
// result must be unchanged. The 1-bit status register lives in the RFU, so
// here "init low" models the reissued invocation.
func TestPFUInterruptResume(t *testing.T) {
	pfu := newPFUT(t, SeqMul16())
	const a, b = 31337, 271
	want := RefSeqMul16(a, b)
	for stopAt := 1; stopAt < SeqMul16Cycles; stopAt++ {
		pfu.Reset()
		init := true
		var out uint32
		var done bool
		for c := 0; c < stopAt; c++ {
			out, done = pfu.Step(a, b, init)
			init = false
		}
		if done {
			t.Fatalf("completed prematurely at cycle %d", stopAt)
		}
		// Interrupt here: the processor stops clocking the PFU, services
		// the IRQ, and later reissues the instruction with init low.
		for c := stopAt; c < 64; c++ {
			out, done = pfu.Step(a, b, false)
			if done {
				break
			}
		}
		if !done || out != want {
			t.Fatalf("resume after %d cycles: out=%d done=%v, want %d", stopAt, out, done, want)
		}
	}
}

// TestPFUStateMigration moves the registers of an in-flight instruction
// onto a freshly configured PFU and finishes execution there: they are all
// the state a §4.1 swap of a circuit off the array mid-instruction must
// carry.
func TestPFUStateMigration(t *testing.T) {
	cfg := placeT(t, SeqMul16())
	p1, err := NewPFU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const a, b = 40000, 999
	want := RefSeqMul16(a, b)
	init := true
	for c := 0; c < 7; c++ {
		p1.Step(a, b, init)
		init = false
	}
	p2, err := NewPFU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setPFURegs(p2, pfuRegs(p1))
	var out uint32
	var done bool
	for c := 0; c < 64; c++ {
		out, done = p2.Step(a, b, false)
		if done {
			break
		}
	}
	if !done || out != want {
		t.Fatalf("migrated instruction: out=%d done=%v, want %d", out, done, want)
	}
}

func TestPFURejectsCombinationalCycle(t *testing.T) {
	cfg := NewArrayConfig(ArraySpec{W: 2, H: 2})
	// CLB0 and CLB1 invert each other combinationally.
	cfg.CLBs[0] = CLBConfig{Table: 0x5555, InSel: [4]uint16{uint16(WireCLB0+1) + 1}, Flags: FlagLUTUsed}
	cfg.CLBs[1] = CLBConfig{Table: 0x5555, InSel: [4]uint16{uint16(WireCLB0+0) + 1}, Flags: FlagLUTUsed}
	if _, err := NewPFU(cfg); err == nil {
		t.Fatal("combinational cycle must be rejected at configuration load")
	}
}

func TestPFUAllowsRegisteredCycle(t *testing.T) {
	cfg := NewArrayConfig(ArraySpec{W: 2, H: 2})
	// CLB0: registered inverter of its own output — a divide-by-two toggle.
	cfg.CLBs[0] = CLBConfig{
		Table: 0x5555,
		InSel: [4]uint16{uint16(WireCLB0+0) + 1},
		Flags: FlagLUTUsed | FlagFFUsed | FlagOutFF,
	}
	cfg.OutSel[0] = uint16(WireCLB0+0) + 1
	p, err := NewPFU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seq []uint32
	for i := 0; i < 4; i++ {
		out, _ := p.Step(0, 0, false)
		seq = append(seq, out&1)
	}
	want := []uint32{0, 1, 0, 1}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("toggle sequence %v, want %v", seq, want)
		}
	}
}

func TestPlaceRejectsOversizedCircuit(t *testing.T) {
	n := SeqMul16()
	if _, _, err := Place(n, ArraySpec{W: 4, H: 4}); err == nil {
		t.Fatal("16-CLB array cannot fit a multiplier")
	}
}

func TestPlaceRejectsWrongPorts(t *testing.T) {
	b := NewBuilder("noports")
	a := b.Input("a", 8)
	b.Output("out", a)
	n := b.MustBuild()
	if _, _, err := Place(n, DefaultPFUSpec); err == nil {
		t.Fatal("non-PFU port shape must be rejected")
	}
}

func TestArrayConfigValidate(t *testing.T) {
	cfg := NewArrayConfig(ArraySpec{W: 2, H: 2})
	cfg.CLBs[0].InSel[0] = uint16(cfg.Spec.NumWires()) + 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("out-of-range wire select must be rejected")
	}
}
