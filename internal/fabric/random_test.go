package fabric

import (
	"math/rand"
	"testing"
)

// randomCircuit builds a random combinational+sequential netlist with the
// PFU port shape: a DAG of LUTs over the inputs with a few flip-flops
// mixed in. Returns the netlist plus an independent reference evaluator.
func randomCircuit(rng *rand.Rand, nLUTs, nFFs int) (*Netlist, func(a, b uint32, steps int) (uint32, bool)) {
	b := NewBuilder("random")
	aIn := b.Input("a", 32)
	bIn := b.Input("b", 32)
	init := b.Input("init", 1)

	type node struct {
		net Net
		// eval returns the node value given current wire values.
	}
	pool := make([]Net, 0, 65+nLUTs)
	pool = append(pool, aIn...)
	pool = append(pool, bIn...)
	pool = append(pool, init...)

	type lutSpec struct {
		table uint16
		ins   []int // indices into pool at creation time
		out   Net
	}
	var luts []lutSpec
	var ffs []struct {
		d    int
		init bool
		out  Net
	}

	for i := 0; i < nLUTs; i++ {
		k := 1 + rng.Intn(4)
		ins := make([]int, k)
		nets := make([]Net, k)
		for j := range ins {
			ins[j] = rng.Intn(len(pool))
			nets[j] = pool[ins[j]]
		}
		table := uint16(rng.Uint32())
		out := b.Lut(table, nets...)
		luts = append(luts, lutSpec{CanonTable(table, k), ins, out})
		pool = append(pool, out)
	}
	for i := 0; i < nFFs; i++ {
		d := rng.Intn(len(pool))
		iv := rng.Intn(2) == 1
		q := b.DFF(pool[d], iv)
		ffs = append(ffs, struct {
			d    int
			init bool
			out  Net
		}{d, iv, q})
		pool = append(pool, q)
	}
	// Outputs: random selection from the pool; done = constant 1 so the
	// protocol terminates.
	outSel := make([]int, 32)
	outs := make([]Net, 32)
	for i := range outs {
		outSel[i] = rng.Intn(len(pool))
		outs[i] = pool[outSel[i]]
	}
	b.Output("out", outs)
	b.Output("done", []Net{b.Const(true)})
	n := b.MustBuild()

	// Reference evaluator: pool-order recomputation. Pool index layout:
	// 0..31 a, 32..63 b, 64 init, then LUTs, then FFs appended in creation
	// order — but LUTs and FFs interleave in pool order. Rebuild the exact
	// order:
	// We recorded creation order implicitly: LUTs first chunk? No — all
	// LUTs were created before all FFs per the loops above, so pool order
	// is [inputs, luts..., ffs...].
	eval := func(a, bv uint32, steps int) (uint32, bool) {
		vals := make([]bool, len(pool))
		ffState := make([]bool, len(ffs))
		for i := range ffs {
			ffState[i] = ffs[i].init
		}
		settle := func(initBit bool) {
			for i := 0; i < 32; i++ {
				vals[i] = a>>i&1 != 0
				vals[32+i] = bv>>i&1 != 0
			}
			vals[64] = initBit
			base := 65
			for i, l := range luts {
				idx := 0
				for j, src := range l.ins {
					if vals[src] {
						idx |= 1 << j
					}
				}
				vals[base+i] = l.table>>idx&1 != 0
			}
			for i := range ffs {
				vals[base+len(luts)+i] = ffState[i]
			}
			// One more pass for LUTs reading FF outputs created later in
			// pool order: LUT inputs only reference earlier pool entries,
			// so a single in-order pass after loading FFs is wrong for
			// LUTs before FFs... LUT inputs index into pool *at creation
			// time*, which only contains inputs and earlier LUTs — FFs
			// didn't exist yet. So no second pass is needed.
		}
		var out uint32
		for s := 0; s < steps; s++ {
			settle(s == 0)
			out = 0
			for i, sel := range outSel {
				if vals[sel] {
					out |= 1 << i
				}
			}
			// Latch FFs.
			for i, f := range ffs {
				ffState[i] = vals[f.d]
			}
		}
		return out, true
	}
	return n, eval
}

// TestRandomNetlistsSimVsReference cross-checks the netlist simulator
// against an independent straight-line evaluator over random circuits.
func TestRandomNetlistsSimVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n, ref := randomCircuit(rng, 5+rng.Intn(60), rng.Intn(8))
		sim, err := NewSim(n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for rep := 0; rep < 4; rep++ {
			a, b := rng.Uint32(), rng.Uint32()
			steps := 1 + rng.Intn(4)
			sim.Reset()
			sim.SetInput("a", uint64(a))
			sim.SetInput("b", uint64(b))
			var got uint64
			for s := 0; s < steps; s++ {
				if s == 0 {
					sim.SetInput("init", 1)
				} else {
					sim.SetInput("init", 0)
				}
				sim.Eval()
				got, _ = sim.Output("out")
				sim.Step()
			}
			want, _ := ref(a, b, steps)
			if uint32(got) != want {
				t.Fatalf("trial %d rep %d: sim %#x, ref %#x", trial, rep, got, want)
			}
		}
	}
}

// TestRandomNetlistsPlaceAndSimulate places random circuits on the array
// and cross-checks the configured-array simulator against the netlist
// simulator — placement/routing/bitstream must never change behaviour.
func TestRandomNetlistsPlaceAndSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		n, _ := randomCircuit(rng, 5+rng.Intn(80), rng.Intn(10))
		sim, err := NewSim(n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cfg, _, err := Place(n, DefaultPFUSpec)
		if err != nil {
			t.Fatalf("trial %d place: %v", trial, err)
		}
		// Bitstream round trip before simulating.
		bits, err := EncodeStatic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(bits)
		if err != nil {
			t.Fatal(err)
		}
		pfu, err := NewPFU(decoded)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for rep := 0; rep < 4; rep++ {
			a, b := rng.Uint32(), rng.Uint32()
			steps := 1 + rng.Intn(5)
			sim.Reset()
			pfu.Reset()
			sim.SetInput("a", uint64(a))
			sim.SetInput("b", uint64(b))
			var simOut uint64
			var pfuOut uint32
			for s := 0; s < steps; s++ {
				initBit := s == 0
				if initBit {
					sim.SetInput("init", 1)
				} else {
					sim.SetInput("init", 0)
				}
				sim.Eval()
				simOut, _ = sim.Output("out")
				sim.Step()
				pfuOut, _ = pfu.Step(a, b, initBit)
			}
			if uint32(simOut) != pfuOut {
				t.Fatalf("trial %d rep %d steps %d: sim %#x, placed %#x", trial, rep, steps, simOut, pfuOut)
			}
		}
	}
}

// TestRandomNetlistsCompiledVsPFUVsSim is the three-way differential
// property test of the execution substrates: for random netlists, the
// compiled scalar engine, the interpretive PFU and the functional netlist
// simulator must agree on every output of every cycle. Mid-execution the
// registers of the compiled engine and the PFU, the contents of the §4.1
// state frame group, move into a fresh instance of the other engine.
func TestRandomNetlistsCompiledVsPFUVsSim(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		n, _ := randomCircuit(rng, 5+rng.Intn(80), rng.Intn(10))
		sim, err := NewSim(n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cfg, _, err := Place(n, DefaultPFUSpec)
		if err != nil {
			t.Fatalf("trial %d place: %v", trial, err)
		}
		// Everything below runs from the decoded bitstream, like the OS.
		bits, err := EncodeStatic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(bits)
		if err != nil {
			t.Fatal(err)
		}
		pfu, err := NewPFU(decoded)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prog, err := Compile(decoded)
		if err != nil {
			t.Fatalf("trial %d compile: %v", trial, err)
		}
		inst := prog.NewInstance()
		for rep := 0; rep < 4; rep++ {
			a, b := rng.Uint32(), rng.Uint32()
			steps := 2 + rng.Intn(6)
			swapAt := 1 + rng.Intn(steps) // swap mid-execution after this step
			sim.Reset()
			pfu.Reset()
			inst.Reset()
			sim.SetInput("a", uint64(a))
			sim.SetInput("b", uint64(b))
			for s := 0; s < steps; s++ {
				initBit := s == 0
				if initBit {
					sim.SetInput("init", 1)
				} else {
					sim.SetInput("init", 0)
				}
				sim.Eval()
				simOut, _ := sim.Output("out")
				sim.Step()
				pfuOut, pfuDone := pfu.Step(a, b, initBit)
				cOut, cDone := inst.Step(a, b, initBit)
				if cOut != pfuOut || cOut != uint32(simOut) {
					t.Fatalf("trial %d rep %d step %d: compiled %#x, PFU %#x, sim %#x",
						trial, rep, s, cOut, pfuOut, simOut)
				}
				if cDone != pfuDone {
					t.Fatalf("trial %d rep %d step %d: done compiled=%v PFU=%v",
						trial, rep, s, cDone, pfuDone)
				}
				if s+1 == swapAt {
					// Both engines' registers must agree CLB for CLB, and
					// each engine's must finish the instruction in a fresh
					// instance of the other engine.
					cRegs := instRegs(inst)
					pRegs := pfuRegs(pfu)
					for i := range cRegs {
						if cRegs[i] != pRegs[i] {
							t.Fatalf("trial %d rep %d: register %d differs", trial, rep, i)
						}
					}
					fresh := prog.NewInstance()
					setInstRegs(fresh, pRegs)
					inst = fresh
					freshPFU, err := NewPFU(decoded)
					if err != nil {
						t.Fatal(err)
					}
					setPFURegs(freshPFU, cRegs)
					pfu = freshPFU
				}
			}
		}
	}
}

// TestPlacementDeterminism: placing the same netlist twice yields the
// identical configuration (reproducible builds).
func TestPlacementDeterminism(t *testing.T) {
	mk := func() *ArrayConfig {
		n := SeqMul16()
		Optimize(n)
		cfg, _, err := Place(n, DefaultPFUSpec)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	a, b := mk(), mk()
	ba, err := EncodeStatic(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := EncodeStatic(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ba) != string(bb) {
		t.Fatal("placement is not deterministic")
	}
}
