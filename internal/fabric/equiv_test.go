package fabric

import (
	"math/rand"
	"strings"
	"testing"
)

// equivStock is the stock circuit library the formal gates run over —
// the same set fplstat -equiv proves in CI.
var equivStock = []func() *Netlist{
	Passthrough32, Xor32, Adder32, Popcount32, CRC32Step, SatAdd16,
	SeqMul16, AlphaBlend, BarrelShift32, LFSR32,
}

// TestEquivStockLibrary proves every stock circuit equivalent to its
// optimized form and to its placed-and-decoded ArrayConfig, and validates
// the compiled program lowered from that configuration — the full
// pipeline, as proofs rather than samples.
func TestEquivStockLibrary(t *testing.T) {
	for _, mk := range equivStock {
		n := mk()
		removed, rep, err := OptimizeChecked(n)
		if err != nil {
			t.Fatalf("%s: OptimizeChecked: %v", n.Name, err)
		}
		if !rep.Equivalent {
			t.Fatalf("%s: optimize proof not equivalent: %s", n.Name, rep)
		}
		if removed < 0 {
			t.Fatalf("%s: negative removal count", n.Name)
		}
		cfg, _, err := Place(n, DefaultPFUSpec)
		if err != nil {
			t.Fatalf("%s: place: %v", n.Name, err)
		}
		bits, err := EncodeStatic(cfg)
		if err != nil {
			t.Fatalf("%s: encode: %v", n.Name, err)
		}
		decoded, err := Decode(bits)
		if err != nil {
			t.Fatalf("%s: decode: %v", n.Name, err)
		}
		crep, err := EquivConfig(decoded, n)
		if err != nil {
			t.Fatalf("%s: EquivConfig: %v", n.Name, err)
		}
		if !crep.Equivalent {
			t.Fatalf("%s: decoded config not equivalent to netlist: %s", n.Name, crep)
		}
		prog, err := Compile(decoded)
		if err != nil {
			t.Fatalf("%s: compile: %v", n.Name, err)
		}
		if err := prog.Verify(decoded); err != nil {
			t.Fatalf("%s: Verify: %v", n.Name, err)
		}
	}
}

// verifyCounterexample replays an Equiv counterexample on the two
// netlist simulators: with the reported inputs and states loaded, the
// sampled output bit must match OutA/OutB on the respective side — and
// so actually distinguish the circuits.
func verifyCounterexample(t *testing.T, a, b *Netlist, ce *Counterexample) {
	t.Helper()
	if ce == nil {
		t.Fatal("inequivalent report without counterexample")
	}
	if ce.OutA == ce.OutB {
		t.Fatalf("counterexample does not distinguish: OutA == OutB == %v", ce.OutA)
	}
	bit := func(n *Netlist, state []bool) bool {
		sim, err := NewSim(n)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		for _, p := range n.Ports {
			if p.Dir != DirIn {
				continue
			}
			if err := sim.SetInput(p.Name, ce.Inputs[p.Name]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.LoadFFState(state); err != nil {
			t.Fatal(err)
		}
		sim.Eval()
		v, err := sim.Output(ce.Port)
		if err != nil {
			t.Fatal(err)
		}
		return v>>ce.Bit&1 != 0
	}
	if got := bit(a, ce.StateA); got != ce.OutA {
		t.Fatalf("Sim disagrees with counterexample on A: got %v, report says %v", got, ce.OutA)
	}
	if got := bit(b, ce.StateB); got != ce.OutB {
		t.Fatalf("Sim disagrees with counterexample on B: got %v, report says %v", got, ce.OutB)
	}
}

// TestEquivDetectsLUTMutation seeds a single-bit truth-table mutation
// into each optimized stock circuit and checks Equiv reports it with a
// counterexample Sim reproduces. Some single bits are masked
// downstream, so the test scans for the first detected mutation and
// requires one to exist per circuit.
func TestEquivDetectsLUTMutation(t *testing.T) {
	for _, mk := range equivStock {
		orig := mk()
		Optimize(orig)
		detected := false
	scan:
		for li := 0; li < len(orig.LUTs) && !detected; li++ {
			span := 1 << orig.LUTs[li].NumIn()
			for bit := 0; bit < span; bit++ {
				mut := orig.Clone()
				mut.LUTs[li].Table ^= 1 << bit
				rep, err := Equiv(orig, mut)
				if err != nil {
					// A mutation that breaks the register correspondence
					// can make the refinement classes collapse and the
					// BDDs blow past the node limit; the checker reports
					// that honestly. Scan on for a decidable mutation.
					if strings.Contains(err.Error(), "node limit") {
						continue
					}
					t.Fatalf("%s: Equiv: %v", orig.Name, err)
				}
				if rep.Equivalent {
					continue
				}
				verifyCounterexample(t, orig, mut, rep.Counterexample)
				detected = true
				continue scan
			}
		}
		if !detected {
			t.Fatalf("%s: no single-bit LUT mutation detected", orig.Name)
		}
	}
}

// TestEquivDetectsRouteSwap rewires one LUT input in the optimized
// adder and checks the mismatch is caught with a verified
// counterexample.
func TestEquivDetectsRouteSwap(t *testing.T) {
	orig := Adder32()
	Optimize(orig)
	for li := 0; li < len(orig.LUTs); li++ {
		l := orig.LUTs[li]
		if l.NumIn() < 2 || l.In[0] == l.In[1] {
			continue
		}
		mut := orig.Clone()
		// Reroute pin 1 onto pin 0's net — a classic routing slip.
		mut.LUTs[li].In[1] = mut.LUTs[li].In[0]
		if err := mut.Validate(); err != nil {
			t.Fatalf("mutated netlist invalid: %v", err)
		}
		rep, err := Equiv(orig, mut)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Equivalent {
			continue
		}
		verifyCounterexample(t, orig, mut, rep.Counterexample)
		return
	}
	t.Fatal("no route swap detected across the whole adder")
}

// TestEquivBoundaryMismatch: circuits with different port shapes are an
// error, not a counterexample.
func TestEquivBoundaryMismatch(t *testing.T) {
	a := Xor32()
	b := &Netlist{Name: "tiny", NumNets: 2}
	b.Ports = []Port{
		{Name: "p", Dir: DirIn, Nets: []Net{0}},
		{Name: "q", Dir: DirOut, Nets: []Net{1}},
	}
	b.LUTs = []LUT{{In: [4]Net{0, NilNet, NilNet, NilNet}, Table: 0x5555, Out: 1}}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Equiv(a, b); err == nil {
		t.Fatal("expected boundary mismatch error")
	}
	cfg, _, err := Place(func() *Netlist { n := Adder32(); Optimize(n); return n }(), DefaultPFUSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EquivConfig(cfg, b); err == nil {
		t.Fatal("expected boundary mismatch error for non-PFU netlist")
	}
}

// TestEquivVerifySpecMismatch: Verify refuses a config for a different
// array geometry instead of comparing nonsense register spaces.
func TestEquivVerifySpecMismatch(t *testing.T) {
	n := Xor32()
	Optimize(n)
	cfg, _, err := Place(n, DefaultPFUSpec)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n2 := Xor32()
	Optimize(n2)
	other, _, err := Place(n2, ArraySpec{W: 15, H: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Verify(other); err == nil || !strings.Contains(err.Error(), "spec") {
		t.Fatalf("expected spec mismatch error, got %v", err)
	}
}

// TestEquivExhaustiveFallback forces the BDD node limit down so the
// prover must fall back to exhaustive enumeration over the structural
// support, and cross-checks the verdict against ground truth from
// exhaustive simulation.
func TestEquivExhaustiveFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tiny := proveOpts{nodeLimit: 24, exhMax: 16}
	sawExhaustive := false
	for trial := 0; trial < 40; trial++ {
		a := genSmall(rng, 8, 10, 0, 4)
		b := a.Clone()
		if trial%2 == 1 {
			li := rng.Intn(len(b.LUTs))
			b.LUTs[li].Table ^= 1 << rng.Intn(1<<b.LUTs[li].NumIn())
		}
		want := exhaustiveSimEqual(t, a, b)
		sa, err := netlistSym(a)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := netlistSym(b)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := prove(sa, sb, tiny)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if rep.Equivalent != want {
			t.Fatalf("trial %d: fallback verdict %v, exhaustive simulation says %v", trial, rep.Equivalent, want)
		}
		if rep.Exhaustive > 0 {
			sawExhaustive = true
		}
		if !rep.Equivalent {
			verifyCounterexample(t, a, b, rep.Counterexample)
		}
	}
	if !sawExhaustive {
		t.Fatal("node limit never forced the exhaustive fallback")
	}
}

// TestEquivSequentialBlowupIsError: sequential circuits have no
// exhaustive fallback, so an undersized node budget must surface as an
// error rather than a bogus verdict.
func TestEquivSequentialBlowupIsError(t *testing.T) {
	n := LFSR32()
	Optimize(n)
	sa, err := netlistSym(n)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := netlistSym(n.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prove(sa, sb, proveOpts{nodeLimit: 8, exhMax: 4}); err == nil {
		t.Fatal("expected node-limit error on sequential circuit")
	}
}

// BenchmarkEquiv proves a representative slice of the stock library
// (ripple carry, symmetric tree, mux network, sequential feedback) and
// reports throughput in output cones proved per second — the CI
// bench-smoke metric for the formal backend.
func BenchmarkEquiv(b *testing.B) {
	type pair struct {
		name string
		a, s *symCircuit
	}
	var pairs []pair
	for _, mk := range []func() *Netlist{Adder32, Popcount32, BarrelShift32, LFSR32} {
		orig := mk()
		opt := orig.Clone()
		Optimize(opt)
		sa, err := netlistSym(orig)
		if err != nil {
			b.Fatal(err)
		}
		sb, err := netlistSym(opt)
		if err != nil {
			b.Fatal(err)
		}
		pairs = append(pairs, pair{orig.Name, sa, sb})
	}
	cones := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			rep, err := prove(p.a, p.s, defaultProveOpts)
			if err != nil {
				b.Fatalf("%s: %v", p.name, err)
			}
			if !rep.Equivalent {
				b.Fatalf("%s: not equivalent", p.name)
			}
			cones += rep.Outputs
		}
	}
	b.ReportMetric(float64(cones)/b.Elapsed().Seconds(), "cones-proved-per-sec")
}
