package fabric

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func compileT(t *testing.T, cfg *ArrayConfig) *Compiled {
	t.Helper()
	prog, err := Compile(cfg)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return prog
}

// instRun drives a compiled instance through the execution protocol.
func instRun(t *testing.T, in *Instance, a, b uint32, max int) (uint32, int) {
	t.Helper()
	init := true
	for cyc := 1; cyc <= max; cyc++ {
		out, done := in.Step(a, b, init)
		init = false
		if done {
			return out, cyc
		}
	}
	t.Fatalf("instance did not complete within %d cycles", max)
	return 0, 0
}

// The registers, one flip-flop per CLB, are a circuit's whole state: the
// contents of its §4.1 state frame group. Tests read and write them as
// one 0/1 byte per CLB in CLB order, the layout of Instance.ffQ, to
// compare engines and to move an instruction into a fresh instance.

// instRegs returns in's registers as stepping would have left them: a
// cut instruction settles on a copy, so in keeps it pending.
func instRegs(in *Instance) []uint8 {
	c := *in
	c.wires = slices.Clone(in.wires)
	c.ffQ = slices.Clone(in.ffQ)
	c.settleCut()
	return c.ffQ
}

// setInstRegs loads regs into in, dropping any cut instruction.
func setInstRegs(in *Instance, regs []uint8) {
	in.cut = 0
	copy(in.ffQ, regs)
}

// pfuRegs returns p's registers.
func pfuRegs(p *PFU) []uint8 {
	out := make([]uint8, len(p.ffQ))
	for i, v := range p.ffQ {
		if v {
			out[i] = 1
		}
	}
	return out
}

// setPFURegs loads regs into p.
func setPFURegs(p *PFU, regs []uint8) {
	for i, v := range regs {
		p.ffQ[i] = v != 0
	}
}

// TestCompiledMatchesPFUStockCircuits locks the compiled engine to the
// interpretive reference over every stock circuit: same outputs, same
// latency, cycle for cycle.
func TestCompiledMatchesPFUStockCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, mk := range []func() *Netlist{
		Passthrough32, Xor32, Adder32, Popcount32, CRC32Step, SatAdd16,
		SeqMul16, AlphaBlend, BarrelShift32, LFSR32,
	} {
		n := mk()
		name := n.Name
		cfg := placeT(t, n)
		pfu, err := NewPFU(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inst := compileT(t, cfg).NewInstance()
		for trial := 0; trial < 30; trial++ {
			a, b := rng.Uint32(), rng.Uint32()
			pfu.Reset()
			inst.Reset()
			wantOut, wantCyc := pfuRun(t, pfu, a, b, 64)
			gotOut, gotCyc := instRun(t, inst, a, b, 64)
			if gotOut != wantOut || gotCyc != wantCyc {
				t.Fatalf("%s(%#x,%#x): compiled (%#x,%d) vs PFU (%#x,%d)",
					name, a, b, gotOut, gotCyc, wantOut, wantCyc)
			}
		}
	}
}

// TestCompiledInitSchedulesMatchPFU drives the two init schedules in
// ways the §4.4 protocol never does: init high at random cycles, not
// only the first; operands changing mid-instruction; and a fresh
// instance, loaded with the registers, swapped in between an init-high
// and an init-low step. A schedule that reads a wire only the other
// schedule writes sees a stale value (or a fresh scratch's zero) and
// diverges from the PFU and the netlist simulator here, and Verify
// rejects it. Stock circuits run optimised, as the stock flow places
// them; random netlists run unoptimised, so constant
// and identity LUTs reach the compiler. Half of those read init on a
// third of their pins, so most LUTs differ between the two schedules.
func TestCompiledInitSchedulesMatchPFU(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var cases []*Netlist
	for _, c := range stockLibrary {
		cases = append(cases, c.mk())
	}
	for i := 0; i < 25; i++ {
		n, _ := randomCircuit(rng, 5+rng.Intn(80), rng.Intn(10))
		cases = append(cases, n, initHeavyCircuit(rng, 10+rng.Intn(80)))
	}
	for ci, n := range cases {
		if ci < len(stockLibrary) {
			Optimize(n)
		}
		name := fmt.Sprintf("%s#%d", n.Name, ci)
		cfg, _, err := Place(n, DefaultPFUSpec)
		if err != nil {
			t.Fatalf("%s: place: %v", name, err)
		}
		sim, err := NewSim(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pfu, err := NewPFU(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog := compileT(t, cfg)
		if err := prog.Verify(cfg); err != nil {
			t.Fatalf("%s: Verify: %v", name, err)
		}
		inst := prog.NewInstance()
		a, b := rng.Uint32(), rng.Uint32()
		swaps, prevInit := 0, false
		for step := 0; step < 200; step++ {
			if rng.Intn(4) == 0 {
				a = rng.Uint32()
			}
			if rng.Intn(4) == 0 {
				b = rng.Uint32()
			}
			init := rng.Intn(3) == 0
			if prevInit && !init && rng.Intn(2) == 0 {
				fresh := prog.NewInstance()
				setInstRegs(fresh, instRegs(inst))
				inst = fresh
				swaps++
			}
			prevInit = init
			var initBit uint64
			if init {
				initBit = 1
			}
			sim.SetInput("a", uint64(a))
			sim.SetInput("b", uint64(b))
			sim.SetInput("init", initBit)
			sim.Eval()
			simOut, _ := sim.Output("out")
			simDone, _ := sim.Output("done")
			sim.Step()
			pOut, pDone := pfu.Step(a, b, init)
			cOut, cDone := inst.Step(a, b, init)
			if cOut != pOut || cDone != pDone || cOut != uint32(simOut) || cDone != (simDone != 0) {
				t.Fatalf("%s step %d (a=%#x b=%#x init=%v): compiled (%#x,%v), PFU (%#x,%v), sim (%#x,%v)",
					name, step, a, b, init, cOut, cDone, pOut, pDone, simOut, simDone != 0)
			}
		}
		if swaps == 0 {
			t.Fatalf("%s: no init-high to init-low swap exercised", name)
		}
	}
}

// initHeavyCircuit builds a random netlist with the PFU port shape whose
// LUTs read init on about a third of their pins, with flip-flops mixed
// in and done driven by logic rather than a constant.
func initHeavyCircuit(rng *rand.Rand, nLUTs int) *Netlist {
	b := NewBuilder("initheavy")
	pool := append(b.Input("a", 32), b.Input("b", 32)...)
	init := b.Input("init", 1)[0]
	for i := 0; i < nLUTs; i++ {
		ins := make([]Net, 1+rng.Intn(4))
		for j := range ins {
			if rng.Intn(3) == 0 {
				ins[j] = init
			} else {
				ins[j] = pool[rng.Intn(len(pool))]
			}
		}
		pool = append(pool, b.Lut(uint16(rng.Uint32()), ins...))
		if rng.Intn(6) == 0 {
			pool = append(pool, b.DFF(pool[rng.Intn(len(pool))], rng.Intn(2) == 1))
		}
	}
	outs := make([]Net, 32)
	for i := range outs {
		outs[i] = pool[rng.Intn(len(pool))]
	}
	b.Output("out", outs)
	b.Output("done", []Net{pool[len(pool)-1]})
	return b.MustBuild()
}

// TestCompileRejectsCombinationalCycle: the compiled engine must apply the
// same §2 functional-security validation as the interpretive loader.
func TestCompileRejectsCombinationalCycle(t *testing.T) {
	cfg := NewArrayConfig(ArraySpec{W: 2, H: 2})
	cfg.CLBs[0] = CLBConfig{Table: 0x5555, InSel: [4]uint16{uint16(WireCLB0+1) + 1}, Flags: FlagLUTUsed}
	cfg.CLBs[1] = CLBConfig{Table: 0x5555, InSel: [4]uint16{uint16(WireCLB0+0) + 1}, Flags: FlagLUTUsed}
	if _, err := Compile(cfg); err == nil {
		t.Fatal("combinational cycle must be rejected at compile time")
	}
}

// TestCompiledAllowsRegisteredCycle mirrors TestPFUAllowsRegisteredCycle:
// a registered feedback loop is legal and toggles.
func TestCompiledAllowsRegisteredCycle(t *testing.T) {
	cfg := NewArrayConfig(ArraySpec{W: 2, H: 2})
	cfg.CLBs[0] = CLBConfig{
		Table: 0x5555,
		InSel: [4]uint16{uint16(WireCLB0+0) + 1},
		Flags: FlagLUTUsed | FlagFFUsed | FlagOutFF,
	}
	cfg.OutSel[0] = uint16(WireCLB0+0) + 1
	inst := compileT(t, cfg).NewInstance()
	want := []uint32{0, 1, 0, 1}
	for i, wv := range want {
		out, _ := inst.Step(0, 0, false)
		if out&1 != wv {
			t.Fatalf("toggle step %d = %d, want %d", i, out&1, wv)
		}
	}
}

// TestCompiledStateMigration: the registers of a mid-flight compiled
// instance, loaded into a *fresh* instance, finish the instruction with
// the right answer: they are all the state a §4.1 swap must carry.
func TestCompiledStateMigration(t *testing.T) {
	prog := compileT(t, placeT(t, SeqMul16()))
	const a, b = 40000, 999
	want := RefSeqMul16(a, b)
	i1 := prog.NewInstance()
	init := true
	for c := 0; c < 7; c++ {
		i1.Step(a, b, init)
		init = false
	}
	i2 := prog.NewInstance()
	setInstRegs(i2, instRegs(i1))
	var out uint32
	var done bool
	for c := 0; c < 64; c++ {
		out, done = i2.Step(a, b, false)
		if done {
			break
		}
	}
	if !done || out != want {
		t.Fatalf("migrated instruction: out=%d done=%v, want %d", out, done, want)
	}
}

// TestCompiledStateMigratesAcrossEngines: both engines keep the same
// registers in the same CLB order — a PFU's registers finish an
// instruction in a compiled instance and vice versa.
func TestCompiledStateMigratesAcrossEngines(t *testing.T) {
	cfg := placeT(t, SeqMul16())
	prog := compileT(t, cfg)
	pfu, err := NewPFU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const a, b = 31337, 271
	want := RefSeqMul16(a, b)

	// PFU starts, compiled instance finishes.
	init := true
	for c := 0; c < 5; c++ {
		pfu.Step(a, b, init)
		init = false
	}
	inst := prog.NewInstance()
	setInstRegs(inst, pfuRegs(pfu))
	var out uint32
	var done bool
	for c := 0; c < 64 && !done; c++ {
		out, done = inst.Step(a, b, false)
	}
	if !done || out != want {
		t.Fatalf("PFU->compiled migration: out=%d done=%v, want %d", out, done, want)
	}

	// Compiled starts, PFU finishes.
	inst2 := prog.NewInstance()
	init = true
	for c := 0; c < 9; c++ {
		inst2.Step(a, b, init)
		init = false
	}
	pfu2, err := NewPFU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setPFURegs(pfu2, instRegs(inst2))
	done = false
	for c := 0; c < 64 && !done; c++ {
		out, done = pfu2.Step(a, b, false)
	}
	if !done || out != want {
		t.Fatalf("compiled->PFU migration: out=%d done=%v, want %d", out, done, want)
	}
}

// TestCompiledInstancesIndependent: two instances of one program advance
// independently — the shared program carries no mutable state.
func TestCompiledInstancesIndependent(t *testing.T) {
	prog := compileT(t, placeT(t, SeqMul16()))
	i1 := prog.NewInstance()
	i2 := prog.NewInstance()
	const a1, b1 = 123, 456
	const a2, b2 = 789, 321
	// Interleave the two executions cycle by cycle.
	var out1, out2 uint32
	var done1, done2 bool
	init := true
	for c := 0; c < 64 && !(done1 && done2); c++ {
		if !done1 {
			out1, done1 = i1.Step(a1, b1, init)
		}
		if !done2 {
			out2, done2 = i2.Step(a2, b2, init)
		}
		init = false
	}
	if out1 != RefSeqMul16(a1, b1) || out2 != RefSeqMul16(a2, b2) {
		t.Fatalf("interleaved instances diverged: %d, %d", out1, out2)
	}
}
