package fabric

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// kindsOf projects a report onto its diagnostic kinds, in report order.
func kindsOf(r *LintReport) []DiagKind {
	kinds := make([]DiagKind, len(r.Diags))
	for i, d := range r.Diags {
		kinds[i] = d.Kind
	}
	return kinds
}

// cycleRejections renders, for each cycle r reports, the rejection
// naming its first element; format takes that element's index.
func cycleRejections(r *LintReport, format string) []string {
	var errs []string
	for _, d := range r.Diags {
		if d.Kind == DiagCombCycle {
			errs = append(errs, fmt.Sprintf(format, d.Path[0]))
		}
	}
	return errs
}

// checkCycleVerdict asserts that Levelize rejects a netlist exactly when
// Lint reports a combinational cycle, and that the rejection names the
// first LUT of one of the reported cycles.
func checkCycleVerdict(t *testing.T, n *Netlist, r *LintReport) {
	t.Helper()
	want := cycleRejections(r, fmt.Sprintf("fabric: netlist %q: combinational cycle through LUT %%d", n.Name))
	_, err := n.Levelize()
	switch {
	case err == nil && len(want) > 0:
		t.Errorf("%s: Levelize accepted a netlist Lint reports cyclic: %v", n.Name, want)
	case err != nil && !slices.Contains(want, err.Error()):
		t.Errorf("%s: Levelize error %q names no cycle Lint reports %v", n.Name, err, want)
	}
}

func TestLintDeadCone(t *testing.T) {
	// Net 0 = input a; LUT 0 inverts it onto net 1, which nothing reads:
	// the whole cone is dead. The output port taps net 0 directly.
	n := &Netlist{
		Name:    "dead",
		NumNets: 2,
		Ports: []Port{
			{Name: "a", Dir: DirIn, Nets: []Net{0}},
			{Name: "out", Dir: DirOut, Nets: []Net{0}},
		},
		LUTs: []LUT{{In: [4]Net{0, NilNet, NilNet, NilNet}, Table: CanonTable(0x1, 1), Out: 1}},
	}
	r, err := Lint(n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kindsOf(r), []DiagKind{DiagDeadCone}) {
		t.Fatalf("diags = %v", r.Diags)
	}
	if r.Diags[0].Elem != 0 {
		t.Errorf("dead cone anchored on LUT %d, want 0", r.Diags[0].Elem)
	}
}

func TestLintConstLUT(t *testing.T) {
	// LUT 0 has two connected inputs but an all-zero table; LUT 1 has
	// two connected inputs but only depends on the first (an OR with an
	// ignored input would fold).
	n := &Netlist{
		Name:    "const",
		NumNets: 4,
		Ports: []Port{
			{Name: "a", Dir: DirIn, Nets: []Net{0, 1}},
			{Name: "out", Dir: DirOut, Nets: []Net{2, 3}},
		},
		LUTs: []LUT{
			{In: [4]Net{0, 1, NilNet, NilNet}, Table: 0, Out: 2},
			{In: [4]Net{0, 1, NilNet, NilNet}, Table: CanonTable(0xA, 2), Out: 3}, // depends on in0 only
		},
	}
	r, err := Lint(n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kindsOf(r), []DiagKind{DiagConstLUT, DiagConstLUT}) {
		t.Fatalf("diags = %v", r.Diags)
	}
	if !strings.Contains(r.Diags[0].Msg, "constant") || !strings.Contains(r.Diags[1].Msg, "ignores") {
		t.Errorf("messages = %q, %q", r.Diags[0].Msg, r.Diags[1].Msg)
	}
}

func TestLintUnusedFF(t *testing.T) {
	// FF 0 latches the input onto net 1, which nothing observes.
	n := &Netlist{
		Name:    "unused-ff",
		NumNets: 2,
		Ports: []Port{
			{Name: "a", Dir: DirIn, Nets: []Net{0}},
			{Name: "out", Dir: DirOut, Nets: []Net{0}},
		},
		FFs: []FF{{D: 0, Q: 1}},
	}
	r, err := Lint(n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kindsOf(r), []DiagKind{DiagUnusedFF}) {
		t.Fatalf("diags = %v", r.Diags)
	}
	if r.Diags[0].Elem != 0 {
		t.Errorf("unused FF anchored on %d, want 0", r.Diags[0].Elem)
	}
}

func TestLintFloatingInput(t *testing.T) {
	// Table 0xEEEE is a two-input OR, but only input 0 is connected: the
	// output depends on the floating (reads-as-zero) input 1.
	n := &Netlist{
		Name:    "floating",
		NumNets: 2,
		Ports: []Port{
			{Name: "a", Dir: DirIn, Nets: []Net{0}},
			{Name: "out", Dir: DirOut, Nets: []Net{1}},
		},
		LUTs: []LUT{{In: [4]Net{0, NilNet, NilNet, NilNet}, Table: 0xEEEE, Out: 1}},
	}
	r, err := Lint(n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kindsOf(r), []DiagKind{DiagFloatingInput}) {
		t.Fatalf("diags = %v", r.Diags)
	}
}

func TestLintCombCycleWithPath(t *testing.T) {
	// LUT 0 reads LUT 1's output and vice versa: a 2-LUT loop. The
	// output taps LUT 0 so nothing is dead; the only finding is the
	// cycle, and it must name the loop explicitly.
	n := &Netlist{
		Name:    "loop",
		NumNets: 3,
		Ports: []Port{
			{Name: "a", Dir: DirIn, Nets: []Net{0}},
			{Name: "out", Dir: DirOut, Nets: []Net{1}},
		},
		LUTs: []LUT{
			{In: [4]Net{0, 2, NilNet, NilNet}, Table: CanonTable(0x6, 2), Out: 1}, // xor
			{In: [4]Net{1, NilNet, NilNet, NilNet}, Table: CanonTable(0x1, 1), Out: 2},
		},
	}
	r, err := Lint(n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kindsOf(r), []DiagKind{DiagCombCycle}) {
		t.Fatalf("diags = %v", r.Diags)
	}
	d := r.Diags[0]
	if !reflect.DeepEqual(d.Path, []int{0, 1}) {
		t.Errorf("cycle path = %v, want [0 1]", d.Path)
	}
	if want := "LUT 0 -> LUT 1 -> LUT 0"; !strings.Contains(d.Msg, want) {
		t.Errorf("cycle message %q does not spell the path %q", d.Msg, want)
	}
	// The cycle makes the netlist unloadable — Levelize agrees — but the
	// lint still names the path where Levelize only names one LUT.
	if _, err := n.Levelize(); err == nil {
		t.Error("Levelize accepted a cyclic netlist")
	}
	checkCycleVerdict(t, n, r)
}

func TestLintStats(t *testing.T) {
	// Two levels of logic with net 0 read by both LUTs and the output
	// port: depth 2, max fanout 3 on net 0.
	n := &Netlist{
		Name:    "stats",
		NumNets: 3,
		Ports: []Port{
			{Name: "a", Dir: DirIn, Nets: []Net{0}},
			{Name: "out", Dir: DirOut, Nets: []Net{0, 1, 2}},
		},
		LUTs: []LUT{
			{In: [4]Net{0, NilNet, NilNet, NilNet}, Table: CanonTable(0x1, 1), Out: 1},
			{In: [4]Net{0, 1, NilNet, NilNet}, Table: CanonTable(0x6, 2), Out: 2},
		},
	}
	r, err := Lint(n)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() {
		t.Fatalf("diags = %v", r.Diags)
	}
	if r.Stats.Depth != 2 || r.Stats.MaxFanout != 3 || r.Stats.LUTs != 2 {
		t.Errorf("stats = %+v", r.Stats)
	}
}

func TestLintRejectsInvalidNetlist(t *testing.T) {
	n := &Netlist{Name: "bad", NumNets: 1, LUTs: []LUT{{In: [4]Net{5, NilNet, NilNet, NilNet}, Out: 0}}}
	if _, err := Lint(n); err == nil {
		t.Fatal("Lint accepted a structurally invalid netlist")
	}
}

// lintSpec is a small array for hand-built configuration lint tests.
var lintSpec = ArraySpec{W: 2, H: 2}

func TestLintConfigCycleWithPath(t *testing.T) {
	cfg := NewArrayConfig(lintSpec)
	// CLB 0 and CLB 1 read each other combinationally.
	cfg.CLBs[0] = CLBConfig{Table: 0xAAAA, Flags: FlagLUTUsed, InSel: [4]uint16{uint16(WireCLB0+1) + 1}}
	cfg.CLBs[1] = CLBConfig{Table: 0x5555, Flags: FlagLUTUsed, InSel: [4]uint16{uint16(WireCLB0+0) + 1}}
	cfg.OutSel[0] = uint16(WireCLB0+0) + 1
	r, err := LintConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kindsOf(r), []DiagKind{DiagCombCycle}) {
		t.Fatalf("diags = %v", r.Diags)
	}
	d := r.Diags[0]
	if !reflect.DeepEqual(d.Path, []int{0, 1}) {
		t.Errorf("cycle path = %v, want [0 1]", d.Path)
	}
	if want := "CLB 0 -> CLB 1 -> CLB 0"; !strings.Contains(d.Msg, want) {
		t.Errorf("cycle message %q does not spell the path %q", d.Msg, want)
	}
	// NewPFU rejects the same configuration with only one CLB named —
	// the lint complements it with the full path.
	if _, err := NewPFU(cfg); err == nil {
		t.Error("NewPFU accepted a cyclic configuration")
	}
}

func TestLintConfigDeadAndUnused(t *testing.T) {
	cfg := NewArrayConfig(lintSpec)
	// CLB 0: a LUT reading operand a bit 0, output tapped by nothing.
	cfg.CLBs[0] = CLBConfig{Table: 0xAAAA, Flags: FlagLUTUsed, InSel: [4]uint16{WireA0 + 1}}
	// CLB 1: a route-through flip-flop whose Q is never routed out.
	cfg.CLBs[1] = CLBConfig{Flags: FlagFFUsed | FlagFFFromPin, InSel: [4]uint16{WireB0 + 1}}
	r, err := LintConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kindsOf(r), []DiagKind{DiagDeadCone, DiagUnusedFF}) {
		t.Fatalf("diags = %v", r.Diags)
	}
	if r.Diags[0].Elem != 0 || r.Diags[1].Elem != 1 {
		t.Errorf("diags anchored on %d, %d; want 0, 1", r.Diags[0].Elem, r.Diags[1].Elem)
	}
}

func TestLintConfigConstAndFloating(t *testing.T) {
	cfg := NewArrayConfig(lintSpec)
	// CLB 0: connected pin but all-zero table.
	cfg.CLBs[0] = CLBConfig{Table: 0, Flags: FlagLUTUsed | FlagFFUsed | FlagOutFF, InSel: [4]uint16{WireA0 + 1}}
	// CLB 1: OR table with only pin 0 connected: depends on floating pin 1.
	cfg.CLBs[1] = CLBConfig{Table: 0xEEEE, Flags: FlagLUTUsed, InSel: [4]uint16{WireA0 + 1}}
	cfg.OutSel[0] = uint16(WireCLB0+0) + 1
	cfg.OutSel[1] = uint16(WireCLB0+1) + 1
	r, err := LintConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kindsOf(r), []DiagKind{DiagConstLUT, DiagFloatingInput}) {
		t.Fatalf("diags = %v", r.Diags)
	}
}

// TestStockLibraryLintsClean pins the acceptance bar fplstat -lint
// enforces in CI: every stock circuit, after Optimize, is free of the
// whole diagnostic catalog — as a netlist and as a placed
// configuration.
func TestStockLibraryLintsClean(t *testing.T) {
	circuits := []func() *Netlist{
		Passthrough32, Xor32, Adder32, Popcount32, CRC32Step, SatAdd16,
		SeqMul16, AlphaBlend, BarrelShift32, LFSR32,
	}
	for _, mk := range circuits {
		n := mk()
		Optimize(n)
		r, err := Lint(n)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if !r.Clean() {
			t.Errorf("%s netlist lint:\n%s", n.Name, r)
		}
		checkCycleVerdict(t, n, r)
		cfg, _, err := Place(n, DefaultPFUSpec)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		rc, err := LintConfig(cfg)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if !rc.Clean() {
			t.Errorf("%s config lint:\n%s", n.Name, rc)
		}
		// The netlist and configuration linters agree on circuit shape.
		if rc.Stats.LUTs != r.Stats.LUTs || rc.Stats.FFs != r.Stats.FFs || rc.Stats.Depth != r.Stats.Depth {
			t.Errorf("%s: netlist stats %+v vs config stats %+v", n.Name, r.Stats, rc.Stats)
		}
	}
}

// TestOptimizeSweepsDeadLogic pins the dead-logic elimination pass: a
// dead cone and an unobserved flip-flop disappear, live logic stays.
func TestOptimizeSweepsDeadLogic(t *testing.T) {
	n := &Netlist{
		Name:    "sweep",
		NumNets: 4,
		Ports: []Port{
			{Name: "a", Dir: DirIn, Nets: []Net{0}},
			{Name: "out", Dir: DirOut, Nets: []Net{1}},
		},
		LUTs: []LUT{
			{In: [4]Net{0, NilNet, NilNet, NilNet}, Table: CanonTable(0x1, 1), Out: 1}, // live
			{In: [4]Net{1, NilNet, NilNet, NilNet}, Table: CanonTable(0x1, 1), Out: 2}, // dead
		},
		FFs: []FF{{D: 2, Q: 3}}, // latches dead logic, never observed
	}
	removed := Optimize(n)
	if removed < 2 {
		t.Fatalf("Optimize removed %d elements, want the dead LUT and FF", removed)
	}
	if len(n.FFs) != 0 || len(n.LUTs) != 1 {
		t.Fatalf("after sweep: %d LUTs, %d FFs", len(n.LUTs), len(n.FFs))
	}
	r, err := Lint(n)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() {
		t.Errorf("post-sweep lint:\n%s", r)
	}
}
