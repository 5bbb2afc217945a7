package fabric

import (
	"math/rand"
	"testing"
)

// genSmall builds a small random netlist with raw (non-canonical)
// truth tables: inBits input bits on port "x", nFFs flip-flops, nLUTs
// LUTs reading any earlier-defined net, outBits output bits on port
// "y". Unlike randomCircuit (Builder-made, PFU-shaped) this generator
// exercises the checker and optimizer on arbitrary valid structure over
// a space small enough for exhaustive ground truth.
func genSmall(rng *rand.Rand, inBits, nLUTs, nFFs, outBits int) *Netlist {
	n := &Netlist{Name: "small"}
	var pool []Net
	newNet := func() Net {
		net := Net(n.NumNets)
		n.NumNets++
		return net
	}
	ins := make([]Net, inBits)
	for i := range ins {
		ins[i] = newNet()
		pool = append(pool, ins[i])
	}
	n.Ports = append(n.Ports, Port{Name: "x", Dir: DirIn, Nets: ins})
	// Flip-flop outputs are sources; D pins are wired up after the LUTs
	// exist, so registers may close cycles through the logic.
	qs := make([]Net, nFFs)
	for i := range qs {
		qs[i] = newNet()
		pool = append(pool, qs[i])
	}
	for i := 0; i < nLUTs; i++ {
		k := 1 + rng.Intn(4)
		l := LUT{In: [4]Net{NilNet, NilNet, NilNet, NilNet}, Table: uint16(rng.Uint32())}
		for p := 0; p < k; p++ {
			l.In[p] = pool[rng.Intn(len(pool))]
		}
		l.Out = newNet()
		pool = append(pool, l.Out)
		n.LUTs = append(n.LUTs, l)
	}
	for i := 0; i < nFFs; i++ {
		n.FFs = append(n.FFs, FF{D: pool[rng.Intn(len(pool))], Q: qs[i], Init: rng.Intn(2) == 1})
	}
	outs := make([]Net, outBits)
	for i := range outs {
		outs[i] = pool[rng.Intn(len(pool))]
	}
	n.Ports = append(n.Ports, Port{Name: "y", Dir: DirOut, Nets: outs})
	return n
}

// exhaustiveSimEqual decides combinational equivalence by simulating
// every input assignment — ground truth for cross-checking the prover
// on small circuits. Both netlists must share the ≤ 16-bit "x"/"y"
// boundary of genSmall.
func exhaustiveSimEqual(t *testing.T, a, b *Netlist) bool {
	t.Helper()
	pa, _ := a.PortByName("x")
	if len(pa.Nets) > 16 {
		t.Fatalf("exhaustiveSimEqual: %d input bits is too many", len(pa.Nets))
	}
	simA, err := NewSim(a)
	if err != nil {
		t.Fatal(err)
	}
	simB, err := NewSim(b)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 1<<len(pa.Nets); v++ {
		simA.SetInput("x", v)
		simB.SetInput("x", v)
		simA.Eval()
		simB.Eval()
		oa, err := simA.Output("y")
		if err != nil {
			t.Fatal(err)
		}
		ob, err := simB.Output("y")
		if err != nil {
			t.Fatal(err)
		}
		if oa != ob {
			return false
		}
	}
	return true
}

// TestEquivVsExhaustiveSim cross-checks Equiv verdicts against
// exhaustive simulation on random ≤ 8-input combinational netlists:
// identical pairs, optimized pairs, and single-bit mutants must all get
// the verdict the 256-row truth table dictates.
func TestEquivVsExhaustiveSim(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		a := genSmall(rng, 1+rng.Intn(8), 2+rng.Intn(14), 0, 1+rng.Intn(6))
		b := a.Clone()
		switch trial % 3 {
		case 1:
			Optimize(b)
		case 2:
			li := rng.Intn(len(b.LUTs))
			b.LUTs[li].Table ^= 1 << rng.Intn(1<<b.LUTs[li].NumIn())
		}
		want := exhaustiveSimEqual(t, a, b)
		rep, err := Equiv(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if rep.Equivalent != want {
			t.Fatalf("trial %d: Equiv says %v, exhaustive simulation says %v", trial, rep.Equivalent, want)
		}
		if !rep.Equivalent {
			verifyCounterexample(t, a, b, rep.Counterexample)
		}
	}
}

// fuzzMutate applies one seeded mutation — a single truth-table bit
// flip or a single route swap — returning whether the netlist actually
// changed.
func fuzzMutate(n *Netlist, kind, idx, bit uint16) bool {
	if len(n.LUTs) == 0 {
		return false
	}
	li := int(idx) % len(n.LUTs)
	l := &n.LUTs[li]
	if kind%2 == 0 {
		l.Table ^= 1 << (int(bit) % (1 << l.NumIn()))
		return true
	}
	// Route swap: exchange two connected pins of one LUT, or reroute a
	// pin onto another LUT's input net, keeping trailing-NilNet intact.
	lj := (int(idx) + 1 + int(bit)) % len(n.LUTs)
	o := &n.LUTs[lj]
	pi := int(bit) % l.NumIn()
	pj := int(bit>>2) % o.NumIn()
	if l.In[pi] == o.In[pj] {
		return false
	}
	l.In[pi], o.In[pj] = o.In[pj], l.In[pi]
	return true
}

// FuzzEquiv throws seeded mutations at random small netlists
// (combinational and sequential): whenever Equiv reports inequivalence
// the counterexample must reproduce under Sim, and whenever it reports
// equivalence, co-simulation along random input traces from reset must
// never find a difference. The committed corpus under
// testdata/fuzz/FuzzEquiv replays as subtests on every ordinary
// `go test` run.
func FuzzEquiv(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(0), uint16(0))
	f.Add(int64(2), uint16(1), uint16(3), uint16(9))
	f.Add(int64(3), uint16(0), uint16(7), uint16(5))
	f.Add(int64(4), uint16(1), uint16(12), uint16(14))
	f.Fuzz(func(t *testing.T, seed int64, kind, idx, bit uint16) {
		rng := rand.New(rand.NewSource(seed))
		orig := genSmall(rng, 1+rng.Intn(8), 2+rng.Intn(14), rng.Intn(5), 1+rng.Intn(6))
		if err := orig.Validate(); err != nil {
			t.Fatalf("generator produced invalid netlist: %v", err)
		}
		mut := orig.Clone()
		if !fuzzMutate(mut, kind, idx, bit) {
			return
		}
		if err := mut.Validate(); err != nil {
			t.Fatalf("mutation produced invalid netlist: %v", err)
		}
		lint, err := Lint(mut)
		if err != nil {
			t.Fatal(err)
		}
		checkCycleVerdict(t, mut, lint)
		if _, err := mut.Levelize(); err != nil {
			return // route swap closed a combinational loop: not comparable
		}
		rep, err := Equiv(orig, mut)
		if err != nil {
			t.Fatalf("Equiv: %v", err)
		}
		if !rep.Equivalent {
			verifyCounterexample(t, orig, mut, rep.Counterexample)
			return
		}
		// Claimed equivalent: co-simulate along random input traces. The
		// proof covers the states reachable from reset (the register
		// partition is inductive from the initial values, not over
		// arbitrary state vectors), so start each trace at reset and
		// only walk forward — every visited state is then covered.
		simA, err := NewSim(orig)
		if err != nil {
			t.Fatal(err)
		}
		simB, err := NewSim(mut)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 16; trial++ {
			simA.Reset()
			simB.Reset()
			for cyc := 0; cyc < 8; cyc++ {
				x := rng.Uint64()
				simA.SetInput("x", x)
				simB.SetInput("x", x)
				simA.Eval()
				simB.Eval()
				oa, err := simA.Output("y")
				if err != nil {
					t.Fatal(err)
				}
				ob, err := simB.Output("y")
				if err != nil {
					t.Fatal(err)
				}
				if oa != ob {
					t.Fatalf("Equiv said equivalent but outputs differ: %#x vs %#x (trial %d cycle %d)", oa, ob, trial, cyc)
				}
				simA.Step()
				simB.Step()
			}
		}
	})
}
