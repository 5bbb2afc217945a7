package fabric

import (
	"math/rand"
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

// TestCompiledStateMigration: state frames saved from a mid-flight
// compiled instance restore into a *fresh* instance, which finishes with
// the right answer — the §4.1 split-configuration path.
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
	state := i1.SaveFrame()

	i2 := prog.NewInstance()
	if err := i2.LoadFrame(state); err != nil {
		t.Fatal(err)
	}
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

// TestCompiledStateMigratesAcrossEngines: state frames are engine-agnostic
// — a frame group saved by the interpretive PFU restores into a compiled
// instance and vice versa.
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
	if err := inst.LoadFrame(pfu.SaveFrame()); err != nil {
		t.Fatal(err)
	}
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
	if err := pfu2.LoadFrame(inst2.SaveFrame()); err != nil {
		t.Fatal(err)
	}
	done = false
	for c := 0; c < 64 && !done; c++ {
		out, done = pfu2.Step(a, b, false)
	}
	if !done || out != want {
		t.Fatalf("compiled->PFU migration: out=%d done=%v, want %d", out, done, want)
	}
}

func TestCompiledLoadStateLengthCheck(t *testing.T) {
	inst := compileT(t, placeT(t, Xor32())).NewInstance()
	if err := inst.LoadFrame(make([]uint8, 3)); err == nil {
		t.Fatal("short state frame must be rejected")
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

// TestPackUnpackFrame round-trips the modeled frame-group packing.
func TestPackUnpackFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{0, 1, 7, 8, 9, 150} {
		frame := make([]uint8, n)
		for i := range frame {
			frame[i] = uint8(rng.Intn(2))
		}
		back, err := UnpackFrame(PackFrame(frame), n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range frame {
			if back[i] != frame[i] {
				t.Fatalf("n=%d: byte %d changed across pack/unpack", n, i)
			}
		}
	}
	if _, err := UnpackFrame([]byte{0}, 9); err == nil {
		t.Fatal("short frame group must be rejected")
	}
}
