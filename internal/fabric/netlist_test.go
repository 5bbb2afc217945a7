package fabric

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUTEval(t *testing.T) {
	vals := []bool{false, true, false, true}
	l := LUT{In: [4]Net{0, 1, 2, 3}, Table: 0xAAAA} // out = input0
	if got := l.Eval(vals); got != false {
		t.Errorf("identity on in0: got %v", got)
	}
	l = LUT{In: [4]Net{1, NilNet, NilNet, NilNet}, Table: 0xAAAA}
	if got := l.Eval(vals); got != true {
		t.Errorf("buffer of true: got %v", got)
	}
	l = LUT{In: [4]Net{NilNet, NilNet, NilNet, NilNet}, Table: 0xFFFF}
	if got := l.Eval(vals); got != true {
		t.Errorf("constant one: got %v", got)
	}
}

func TestLUTNumIn(t *testing.T) {
	l := LUT{In: [4]Net{3, 5, NilNet, NilNet}}
	if l.NumIn() != 2 {
		t.Errorf("NumIn = %d, want 2", l.NumIn())
	}
}

func TestValidateRejectsMultipleDrivers(t *testing.T) {
	n := &Netlist{
		Name:    "bad",
		NumNets: 2,
		Ports:   []Port{{Name: "a", Dir: DirIn, Nets: []Net{0}}},
		LUTs: []LUT{
			{In: [4]Net{0, NilNet, NilNet, NilNet}, Table: 0xAAAA, Out: 1},
			{In: [4]Net{0, NilNet, NilNet, NilNet}, Table: 0x5555, Out: 1},
		},
	}
	if err := n.Validate(); err == nil {
		t.Fatal("want multiple-driver error")
	}
}

func TestValidateRejectsUndrivenInput(t *testing.T) {
	n := &Netlist{
		Name:    "bad",
		NumNets: 3,
		Ports:   []Port{{Name: "a", Dir: DirIn, Nets: []Net{0}}},
		LUTs: []LUT{
			{In: [4]Net{2, NilNet, NilNet, NilNet}, Table: 0xAAAA, Out: 1},
		},
	}
	if err := n.Validate(); err == nil {
		t.Fatal("want undriven-net error")
	}
}

func TestValidateRejectsNonTrailingNil(t *testing.T) {
	n := &Netlist{
		Name:    "bad",
		NumNets: 2,
		Ports:   []Port{{Name: "a", Dir: DirIn, Nets: []Net{0}}},
		LUTs: []LUT{
			{In: [4]Net{NilNet, 0, NilNet, NilNet}, Table: 0xAAAA, Out: 1},
		},
	}
	if err := n.Validate(); err == nil {
		t.Fatal("want non-trailing-nil error")
	}
}

// TestValidateErrorText pins every Validate message byte for byte, and
// that a valid netlist is checked without formatting any label.
func TestValidateErrorText(t *testing.T) {
	in := Port{Name: "a", Dir: DirIn, Nets: []Net{0}}
	buf := LUT{In: [4]Net{0, NilNet, NilNet, NilNet}, Table: 0xAAAA, Out: 1}
	for _, c := range []struct {
		n    Netlist
		want string
	}{
		{Netlist{NumNets: 1, Ports: []Port{{Name: "a", Dir: DirIn, Nets: []Net{0, 1}}}},
			`input port a drives out-of-range net 1`},
		{Netlist{NumNets: 2, Ports: []Port{in}, LUTs: []LUT{buf, {Out: 2}}},
			`LUT 1 drives out-of-range net 2`},
		{Netlist{NumNets: 2, Ports: []Port{in}, FFs: []FF{{D: 0, Q: 0}}},
			`net 0 multiply driven (FF 0)`},
		{Netlist{NumNets: 3, Ports: []Port{in}, LUTs: []LUT{buf, {In: [4]Net{0, 5, NilNet, NilNet}, Out: 2}}},
			`LUT 1 input 1 reads out-of-range net 5`},
		{Netlist{NumNets: 3, Ports: []Port{in}, LUTs: []LUT{{In: [4]Net{0, 2, NilNet, NilNet}, Out: 1}}},
			`LUT 0 input 1 reads undriven net 2`},
		{Netlist{NumNets: 3, Ports: []Port{in}, FFs: []FF{{D: 2, Q: 1}}},
			`FF 0 D reads undriven net 2`},
		{Netlist{NumNets: 2, Ports: []Port{in, {Name: "y", Dir: DirOut, Nets: []Net{0, 1}}}},
			`output port y bit 1 reads undriven net 1`},
	} {
		c.n.Name = "bad"
		err := c.n.Validate()
		if want := `fabric: netlist "bad": ` + c.want; err == nil || err.Error() != want {
			t.Errorf("Validate = %v, want %s", err, want)
		}
	}

	ok := Netlist{Name: "ok", NumNets: 3, Ports: []Port{in, {Name: "y", Dir: DirOut, Nets: []Net{2}}},
		LUTs: []LUT{buf}, FFs: []FF{{D: 1, Q: 2}}}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := ok.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("valid netlist: %v allocations, want only the driver table", allocs)
	}
}

func TestLevelizeDetectsCombinationalCycle(t *testing.T) {
	// Two inverters in a ring.
	n := &Netlist{
		Name:    "ring",
		NumNets: 2,
		LUTs: []LUT{
			{In: [4]Net{1, NilNet, NilNet, NilNet}, Table: 0x5555, Out: 0},
			{In: [4]Net{0, NilNet, NilNet, NilNet}, Table: 0x5555, Out: 1},
		},
	}
	if _, err := n.Levelize(); err == nil {
		t.Fatal("want combinational cycle error")
	}
}

func TestLevelizeAllowsFFCycle(t *testing.T) {
	// Inverter through a flip-flop: a legal oscillator.
	n := &Netlist{
		Name:    "toggle",
		NumNets: 2,
		LUTs: []LUT{
			{In: [4]Net{1, NilNet, NilNet, NilNet}, Table: 0x5555, Out: 0},
		},
		FFs: []FF{{D: 0, Q: 1}},
	}
	if _, err := n.Levelize(); err != nil {
		t.Fatalf("FF cycle should levelize: %v", err)
	}
}

func TestLevelizeOrdersDependencies(t *testing.T) {
	b := NewBuilder("chain")
	a := b.Input("a", 1)
	x := a[0]
	for i := 0; i < 100; i++ {
		x = b.Not(x)
	}
	b.Output("out", []Net{x})
	n := b.MustBuild()
	order, err := n.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	lutOf := map[Net]int{}
	for i := range n.LUTs {
		lutOf[n.LUTs[i].Out] = i
	}
	for _, li := range order {
		for _, in := range n.LUTs[li].In {
			if in == NilNet {
				continue
			}
			if dep, ok := lutOf[in]; ok && !seen[dep] {
				t.Fatalf("LUT %d evaluated before dependency %d", li, dep)
			}
		}
		seen[li] = true
	}
	if len(order) != len(n.LUTs) {
		t.Fatalf("order covers %d of %d LUTs", len(order), len(n.LUTs))
	}
}

func TestCanonTable(t *testing.T) {
	if got := CanonTable(0x0002, 1); got != 0xAAAA {
		t.Errorf("CanonTable(0x0002,1) = %#04x, want 0xAAAA", got)
	}
	if got := CanonTable(0x00E2, 3); got != 0xE2E2 {
		t.Errorf("CanonTable(0x00E2,3) = %#04x, want 0xE2E2", got)
	}
	if got := CanonTable(0x1234, 4); got != 0x1234 {
		t.Errorf("CanonTable with 4 inputs must be identity")
	}
	if got := CanonTable(0x0001, 0); got != 0xFFFF {
		t.Errorf("CanonTable(1,0) = %#04x, want 0xFFFF", got)
	}
}

// TestFoldLUTExhaustive runs foldLUT on every 4-input table under every
// pin state (free, constant 0, constant 1). The folded table must be
// canonical over the k pins it keeps, in their original order, and read
// each of them; the vacated positions must hold none, k == 0 must be a
// constant table, and the table must compute the original with the
// constants substituted at every assignment of the free pins.
func TestFoldLUTExhaustive(t *testing.T) {
	const c0, c1, none int8 = -1, -2, -3
	known := func(x int8) (bool, bool) { return x == c1, x == c0 || x == c1 }
	for states := 0; states < 81; states++ {
		var in [4]int8
		for p, s := 0, states; p < 4; p, s = p+1, s/3 {
			in[p] = [3]int8{int8(p), c0, c1}[s%3]
		}
		for tab := 0; tab < 1<<16; tab++ {
			got, out, k := foldLUT(uint16(tab), in, none, known)
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("foldLUT(%#04x, %v) = %#04x, %v, %d: "+format, append([]any{tab, in, got, out, k}, args...)...)
			}
			if CanonTable(got, k) != got {
				fail("not canonical")
			}
			if k == 0 && got != 0 && got != 0xFFFF {
				fail("no pins but not a constant")
			}
			for i := range out {
				switch {
				case i >= k && out[i] != none:
					fail("vacated pin %d does not hold none", i)
				case i < k && (out[i] < 0 || i > 0 && out[i] <= out[i-1]):
					fail("pin %d is not the next free pin", i)
				}
			}
			for p := 0; p < k; p++ {
				read := false
				for m := 0; m < 1<<k && !read; m++ {
					read = got>>m&1 != got>>(m^1<<p)&1
				}
				if !read {
					fail("ignores pin %d", p)
				}
			}
			for x := 0; x < 16; x++ {
				idx := 0
				for p, v := range in {
					if v == c0 && x>>p&1 != 0 || v == c1 && x>>p&1 == 0 {
						idx = -1 // x contradicts a constant pin
						break
					}
				}
				if idx < 0 {
					continue
				}
				for i, pin := range out[:k] {
					idx |= x >> pin & 1 << i
				}
				if got>>idx&1 != uint16(tab)>>x&1 {
					fail("differs at pin assignment %04b", x)
				}
			}
		}
	}
}

func TestCollapseInput(t *testing.T) {
	// AND2 table over inputs (0,1): 0x8888. Fix input 1 to true -> buffer of
	// input 0.
	got := collapseInput(0x8888, 1, true)
	if CanonTable(got, 1) != 0xAAAA {
		t.Errorf("AND with true = buffer: got %#04x", got)
	}
	// Fix input 1 to false -> constant 0.
	got = collapseInput(0x8888, 1, false)
	if CanonTable(got, 1) != 0 {
		t.Errorf("AND with false = const0: got %#04x", got)
	}
}

func TestInputIgnored(t *testing.T) {
	if !inputIgnored(0xAAAA, 1) {
		t.Error("buffer of in0 must ignore in1")
	}
	if inputIgnored(0xAAAA, 0) {
		t.Error("buffer of in0 must depend on in0")
	}
	if !inputIgnored(0x8888, 2) || !inputIgnored(0x8888, 3) {
		t.Error("AND2 ignores inputs 2 and 3")
	}
}

// TestOptimizePreservesBehaviour proves — not samples — that every
// stock circuit behaves identically before and after optimisation, by
// running the optimizer in its self-checking mode. A quick protocol
// simulation on the optimized netlist stays as a sanity check that the
// proof and the simulator agree about what "behaviour" means.
func TestOptimizePreservesBehaviour(t *testing.T) {
	circuits := []func() *Netlist{
		Passthrough32, Xor32, Adder32, Popcount32, CRC32Step, SatAdd16,
		SeqMul16, AlphaBlend, BarrelShift32, LFSR32,
	}
	rng := rand.New(rand.NewSource(1))
	for _, mk := range circuits {
		ref := mk()
		opt := mk()
		removed, rep, err := OptimizeChecked(opt)
		if err != nil {
			t.Fatalf("%s: OptimizeChecked: %v", ref.Name, err)
		}
		if !rep.Equivalent {
			t.Fatalf("%s: optimize proof failed: %s", ref.Name, rep)
		}
		if err := opt.Validate(); err != nil {
			t.Fatalf("%s: optimized netlist invalid: %v", ref.Name, err)
		}
		if removed < 0 {
			t.Fatalf("%s: negative removal count", ref.Name)
		}
		simA, err := NewSim(ref)
		if err != nil {
			t.Fatalf("%s: %v", ref.Name, err)
		}
		simB, err := NewSim(opt)
		if err != nil {
			t.Fatalf("%s optimized: %v", ref.Name, err)
		}
		for trial := 0; trial < 5; trial++ {
			a, b := rng.Uint32(), rng.Uint32()
			outA, cycA := runProtocolSim(t, simA, a, b, 64)
			outB, cycB := runProtocolSim(t, simB, a, b, 64)
			if outA != outB || cycA != cycB {
				t.Fatalf("%s: optimize changed behaviour on (%#x,%#x): (%#x,%d) vs (%#x,%d)",
					ref.Name, a, b, outA, cycA, outB, cycB)
			}
		}
	}
}

// sameNetlist compares two netlists structurally, treating nil and
// empty slices alike (Clone normalizes empty slices to nil, which
// reflect.DeepEqual would count as a difference).
func sameNetlist(a, b *Netlist) bool {
	if a.Name != b.Name || a.NumNets != b.NumNets ||
		len(a.Ports) != len(b.Ports) || len(a.LUTs) != len(b.LUTs) || len(a.FFs) != len(b.FFs) {
		return false
	}
	for i := range a.Ports {
		pa, pb := &a.Ports[i], &b.Ports[i]
		if pa.Name != pb.Name || pa.Dir != pb.Dir || len(pa.Nets) != len(pb.Nets) {
			return false
		}
		for j := range pa.Nets {
			if pa.Nets[j] != pb.Nets[j] {
				return false
			}
		}
	}
	for i := range a.LUTs {
		if a.LUTs[i] != b.LUTs[i] {
			return false
		}
	}
	for i := range a.FFs {
		if a.FFs[i] != b.FFs[i] {
			return false
		}
	}
	return true
}

// TestOptimizeIdempotent pins down that Optimize is a fixpoint after
// one application: a second pass removes nothing and leaves the netlist
// bit-for-bit unchanged, over the stock library and two families of
// random netlists.
func TestOptimizeIdempotent(t *testing.T) {
	check := func(t *testing.T, n *Netlist) {
		t.Helper()
		Optimize(n)
		before := n.Clone()
		removed := Optimize(n)
		if removed != 0 {
			t.Fatalf("%s: second Optimize removed %d elements", n.Name, removed)
		}
		if !sameNetlist(before, n) {
			t.Fatalf("%s: second Optimize mutated the netlist", n.Name)
		}
	}
	for _, mk := range []func() *Netlist{
		Passthrough32, Xor32, Adder32, Popcount32, CRC32Step, SatAdd16,
		SeqMul16, AlphaBlend, BarrelShift32, LFSR32,
	} {
		check(t, mk())
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n, _ := randomCircuit(rng, 40, 8)
		check(t, n)
	}
	for trial := 0; trial < 50; trial++ {
		check(t, genSmall(rng, 1+rng.Intn(8), 2+rng.Intn(14), rng.Intn(5), 1+rng.Intn(6)))
	}
}

func TestOptimizeFoldsConstants(t *testing.T) {
	b := NewBuilder("fold")
	a := b.Input("a", 1)
	b.Input("b", 32)
	b.Input("init", 1)
	// x = a AND 0 = 0; out = x OR a = a.
	x := b.And(a[0], b.Const(false))
	y := b.Or(x, a[0])
	out := make([]Net, 32)
	out[0] = y
	for i := 1; i < 32; i++ {
		out[i] = b.Const(false)
	}
	b.Output("out", out)
	b.Output("done", []Net{b.Const(true)})
	// Give it PFU-style "a" with 1 bit; just simulate directly.
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	before := len(n.LUTs)
	Optimize(n)
	if len(n.LUTs) >= before {
		t.Errorf("optimize removed nothing (%d -> %d LUTs)", before, len(n.LUTs))
	}
	s, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, av := range []uint64{0, 1} {
		s.SetInput("a", av)
		s.Eval()
		got, _ := s.Output("out")
		if got != av {
			t.Errorf("folded circuit: out(%d) = %d", av, got)
		}
	}
}

func TestOptimizeDeduplicates(t *testing.T) {
	b := NewBuilder("dedup")
	a := b.Input("a", 2)
	x := b.And(a[0], a[1])
	y := b.And(a[0], a[1]) // structural duplicate
	z := b.Xor(x, y)       // always 0 after dedup... but behaviour is same
	b.Output("out", []Net{z})
	n := b.MustBuild()
	before := len(n.LUTs)
	removed := Optimize(n)
	if removed == 0 {
		t.Errorf("expected dedup to remove LUTs (before=%d)", before)
	}
	s, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 4; v++ {
		s.SetInput("a", v)
		s.Eval()
		got, _ := s.Output("out")
		if got != 0 {
			t.Errorf("x xor x must be 0, got %d for a=%d", got, v)
		}
	}
}

func TestStatsDepth(t *testing.T) {
	b := NewBuilder("depth")
	a := b.Input("a", 1)
	x := a[0]
	for i := 0; i < 5; i++ {
		x = b.Not(x)
	}
	b.Output("out", []Net{x})
	n := b.MustBuild()
	st := n.Stats()
	if st.Depth != 5 {
		t.Errorf("depth = %d, want 5", st.Depth)
	}
	if st.LUTs != 5 {
		t.Errorf("LUTs = %d, want 5", st.LUTs)
	}
}

// Property: CanonTable is idempotent and only depends on the low 2^k bits.
func TestCanonTableProperties(t *testing.T) {
	f := func(tbl uint16, kRaw uint8) bool {
		k := int(kRaw % 5)
		c := CanonTable(tbl, k)
		if CanonTable(c, k) != c {
			return false
		}
		mask := uint16(0xFFFF)
		if k < 4 {
			mask = uint16(1)<<(1<<k) - 1
		}
		return CanonTable(tbl&mask, k) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
