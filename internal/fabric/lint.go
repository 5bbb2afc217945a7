package fabric

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// DiagKind classifies one lint diagnostic.
type DiagKind int

// The netlist/configuration diagnostic catalog. Everything here is
// tolerated by the compiler and the PFU — the circuit still simulates —
// but each one marks waste or a likely authoring bug a user should see:
// logic that computes nothing observable, tables that fold to
// constants, registers nothing reads, truth tables depending on
// floating pins, and combinational loops (which NewPFU/Compile reject;
// the linter additionally names the cycle).
//
// Lint and LintConfig differ only in the table checks. Cycles, depth
// and liveness come from the LUT-graph core in graph.go, the same walk
// and closure NewPFU, Compile, Timing and Optimize use.
const (
	// DiagDeadCone: a LUT whose output reaches no output tap and no
	// flip-flop input.
	DiagDeadCone DiagKind = iota
	// DiagConstLUT: a LUT with connected inputs whose table is constant
	// over them (or ignores one of them): foldable at compile time.
	DiagConstLUT
	// DiagUnusedFF: a flip-flop whose state never reaches an output.
	DiagUnusedFF
	// DiagFloatingInput: a truth table that depends on an unconnected
	// (floating, reads-as-zero) input of a non-constant LUT.
	DiagFloatingInput
	// DiagCombCycle: a combinational cycle; Path names the loop.
	DiagCombCycle
)

// String names the kind for rendered reports.
func (k DiagKind) String() string {
	switch k {
	case DiagDeadCone:
		return "dead-cone"
	case DiagConstLUT:
		return "const-lut"
	case DiagUnusedFF:
		return "unused-ff"
	case DiagFloatingInput:
		return "floating-input"
	case DiagCombCycle:
		return "comb-cycle"
	}
	return fmt.Sprintf("DiagKind(%d)", int(k))
}

// Diag is one structured lint finding.
type Diag struct {
	Kind DiagKind
	// Elem anchors the finding: a LUT index (dead cone, const LUT,
	// floating input), FF index (unused FF) for netlists; a CLB index
	// for configurations; the first element of the cycle for
	// DiagCombCycle.
	Elem int
	// Path, for DiagCombCycle, lists the cycle's LUT (netlist) or CLB
	// (configuration) indices in signal order; the loop closes back to
	// Path[0].
	Path []int
	// Msg is the rendered human-readable finding.
	Msg string
}

// LintStats summarises circuit shape alongside the findings.
type LintStats struct {
	// LUTs and FFs count used logic elements (netlist LUT/FF entries,
	// or configuration CLBs with the corresponding flag).
	LUTs, FFs int
	// Depth is the combinational depth in LUT levels, 0 when a cycle
	// makes it undefined.
	Depth int
	// MaxFanout is the largest number of readers of one net (netlist)
	// or wire (configuration).
	MaxFanout int
}

// LintReport carries every finding for one circuit.
type LintReport struct {
	// Name labels the circuit (netlist name, or "config" for a raw
	// array configuration).
	Name  string
	Diags []Diag
	Stats LintStats
}

// Clean reports whether the lint found nothing.
func (r *LintReport) Clean() bool { return len(r.Diags) == 0 }

// String renders the report one finding per line.
func (r *LintReport) String() string {
	var sb strings.Builder
	for _, d := range r.Diags {
		fmt.Fprintf(&sb, "%s: %s: %s\n", r.Name, d.Kind, d.Msg)
	}
	return sb.String()
}

// sortDiags orders findings deterministically: by kind, then element.
func sortDiags(diags []Diag) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Kind != diags[j].Kind {
			return diags[i].Kind < diags[j].Kind
		}
		return diags[i].Elem < diags[j].Elem
	})
}

// Lint inspects a structurally valid netlist for the diagnostic catalog
// above. Validation errors (the netlist cannot be interpreted at all)
// are returned as err; findings land in the report.
func Lint(n *Netlist) (*LintReport, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	r := &LintReport{Name: n.Name}
	r.Stats.LUTs = len(n.LUTs)
	r.Stats.FFs = len(n.FFs)

	for _, f := range n.fanout() {
		r.Stats.MaxFanout = max(r.Stats.MaxFanout, f)
	}
	lutOf, ffOf := n.drivers()
	r.addCycles("LUT", n.graph(lutOf).levelize())

	// Cone liveness: backward closure from output taps and flip-flop
	// inputs; a LUT outside it computes nothing any register or output
	// will ever see.
	liveCone := make([]bool, n.NumNets)
	seedCone := n.outputNets()
	for i := range n.FFs {
		seedCone = append(seedCone, n.FFs[i].D)
	}
	closure(seedCone, liveCone, func(net Net, push func(Net)) {
		if li := lutOf[net]; li >= 0 {
			for _, in := range n.LUTs[li].In {
				push(in)
			}
		}
	})
	for li := range n.LUTs {
		if !liveCone[n.LUTs[li].Out] {
			r.Diags = append(r.Diags, Diag{
				Kind: DiagDeadCone,
				Elem: li,
				Msg:  fmt.Sprintf("LUT %d (net %d) reaches no output tap or flip-flop", li, n.LUTs[li].Out),
			})
		}
	}

	// Output liveness: the closure Optimize sweeps with, seeded from
	// output taps only and flowing through flip-flops (Q -> D). A
	// flip-flop whose Q stays outside it holds state nothing observes.
	liveOut := n.observable(lutOf, ffOf)
	for fi := range n.FFs {
		if !liveOut[n.FFs[fi].Q] {
			r.Diags = append(r.Diags, Diag{
				Kind: DiagUnusedFF,
				Elem: fi,
				Msg:  fmt.Sprintf("FF %d (net %d) holds state that never reaches an output", fi, n.FFs[fi].Q),
			})
		}
	}

	// Table-level findings.
	for li := range n.LUTs {
		l := &n.LUTs[li]
		k := l.NumIn()
		if k == 0 {
			continue // deliberate constant driver
		}
		if canon := CanonTable(l.Table, k); canon == 0 || canon == 0xFFFF {
			r.Diags = append(r.Diags, Diag{
				Kind: DiagConstLUT,
				Elem: li,
				Msg:  fmt.Sprintf("LUT %d output is constant %d over its %d connected inputs", li, canon&1, k),
			})
			continue
		}
		ignored := -1
		for i := 0; i < k; i++ {
			if inputIgnored(l.Table, i) {
				ignored = i
				break
			}
		}
		if ignored >= 0 {
			r.Diags = append(r.Diags, Diag{
				Kind: DiagConstLUT,
				Elem: li,
				Msg:  fmt.Sprintf("LUT %d table ignores connected input %d; foldable", li, ignored),
			})
		}
		for i := k; i < 4; i++ {
			if !inputIgnored(l.Table, i) {
				r.Diags = append(r.Diags, Diag{
					Kind: DiagFloatingInput,
					Elem: li,
					Msg:  fmt.Sprintf("LUT %d table depends on unconnected input %d (reads as 0)", li, i),
				})
				break
			}
		}
	}

	sortDiags(r.Diags)
	return r, nil
}

// addCycles records the walk's shared graph findings: one
// DiagCombCycle per cycle, rendered as "LUT 3 -> LUT 7 -> LUT 3" with
// elem naming the node kind, and the depth (0 when cyclic).
func (r *LintReport) addCycles(elem string, lv levels) {
	for _, cyc := range lv.cycles {
		var sb strings.Builder
		for _, e := range cyc {
			fmt.Fprintf(&sb, "%s %d -> ", elem, e)
		}
		fmt.Fprintf(&sb, "%s %d", elem, cyc[0])
		r.Diags = append(r.Diags, Diag{
			Kind: DiagCombCycle,
			Elem: cyc[0],
			Path: cyc,
			Msg:  "combinational cycle: " + sb.String(),
		})
	}
	r.Stats.Depth = lv.max
}

// LintConfig inspects a decoded array configuration for the same
// catalog as Lint, at the CLB level: dead logic, constant tables,
// unobservable registers, floating-pin dependence, and combinational
// cycles with their path. The cycles and depth come from the walk
// NewPFU and Compile reject with, which names only the first offending
// CLB.
func LintConfig(cfg *ArrayConfig) (*LintReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &LintReport{Name: "config"}
	ncl := cfg.Spec.CLBs()

	used := func(i int) *CLBConfig { return &cfg.CLBs[i] }
	for i := 0; i < ncl; i++ {
		c := used(i)
		if c.Flags&FlagLUTUsed != 0 {
			r.Stats.LUTs++
		}
		if c.Flags&FlagFFUsed != 0 {
			r.Stats.FFs++
		}
	}

	// taps lists the wire behind each output select, -1 when unrouted
	// (the liveness closures skip it).
	var taps []int
	for _, sel := range cfg.OutSel {
		taps = append(taps, int(sel)-1)
	}

	// Fanout: readers per wire (routed input pins + output taps).
	fanout := make([]int, cfg.Spec.NumWires())
	pinWire := func(c *CLBConfig, pin int) int { return int(c.InSel[pin]) - 1 }
	for i := 0; i < ncl; i++ {
		c := used(i)
		if c.Flags&FlagLUTUsed != 0 {
			for pin := 0; pin < 4; pin++ {
				if w := pinWire(c, pin); w >= 0 {
					fanout[w]++
				}
			}
		}
		if c.Flags&FlagFFUsed != 0 && c.Flags&FlagFFFromPin != 0 {
			if w := pinWire(c, 0); w >= 0 {
				fanout[w]++
			}
		}
	}
	for _, w := range taps {
		if w >= 0 {
			fanout[w]++
		}
	}
	for _, f := range fanout {
		r.Stats.MaxFanout = max(r.Stats.MaxFanout, f)
	}

	r.addCycles("CLB", configGraph(cfg).levelize())

	// expand pushes the wires a live CLB output depends on: through the
	// register (pin 0 or the internal LUT feed) when the output is the
	// FF, through the LUT's routed pins otherwise.
	expand := func(w int, push func(int)) {
		if w < WireCLB0 {
			return
		}
		c := used(w - WireCLB0)
		switch {
		case c.Flags&FlagOutFF != 0 && c.Flags&FlagFFFromPin != 0:
			push(pinWire(c, 0))
		case c.Flags&FlagLUTUsed != 0:
			for pin := 0; pin < 4; pin++ {
				push(pinWire(c, pin))
			}
		}
	}

	// Cone liveness: seeded from output taps and every wire feeding a
	// used flip-flop.
	liveCone := make([]bool, cfg.Spec.NumWires())
	seedCone := slices.Clone(taps)
	for i := 0; i < ncl; i++ {
		c := used(i)
		if c.Flags&FlagFFUsed == 0 {
			continue
		}
		if c.Flags&FlagFFFromPin != 0 {
			seedCone = append(seedCone, pinWire(c, 0))
		} else if c.Flags&FlagLUTUsed != 0 {
			// The LUT feeds the register internally: its pins are live.
			for pin := 0; pin < 4; pin++ {
				seedCone = append(seedCone, pinWire(c, pin))
			}
		}
	}
	closure(seedCone, liveCone, expand)
	for i := 0; i < ncl; i++ {
		c := used(i)
		if c.Flags&FlagLUTUsed == 0 {
			continue
		}
		feedsFF := c.Flags&FlagFFUsed != 0 && c.Flags&FlagFFFromPin == 0
		if !feedsFF && !liveCone[WireCLB0+i] {
			r.Diags = append(r.Diags, Diag{
				Kind: DiagDeadCone,
				Elem: i,
				Msg:  fmt.Sprintf("CLB %d LUT reaches no output tap or flip-flop", i),
			})
		}
	}

	// Output liveness: seeded from output taps only. A used flip-flop
	// whose CLB output wire stays dead — or whose Q is not even routed
	// to the output mux (FlagOutFF clear) — is unobservable state.
	liveOut := make([]bool, cfg.Spec.NumWires())
	closure(taps, liveOut, expand)
	for i := 0; i < ncl; i++ {
		c := used(i)
		if c.Flags&FlagFFUsed == 0 {
			continue
		}
		if c.Flags&FlagOutFF == 0 || !liveOut[WireCLB0+i] {
			r.Diags = append(r.Diags, Diag{
				Kind: DiagUnusedFF,
				Elem: i,
				Msg:  fmt.Sprintf("CLB %d flip-flop holds state that never reaches an output", i),
			})
		}
	}

	// Table-level findings per used LUT. Pins select wires arbitrarily
	// in a raw configuration (no trailing-NilNet invariant), so the
	// connected-pin set is a mask, not a prefix.
	for i := 0; i < ncl; i++ {
		c := used(i)
		if c.Flags&FlagLUTUsed == 0 {
			continue
		}
		var mask int
		for pin := 0; pin < 4; pin++ {
			if pinWire(c, pin) >= 0 {
				mask |= 1 << pin
			}
		}
		if mask == 0 {
			continue // constant driver
		}
		if constOverMask(c.Table, mask) {
			r.Diags = append(r.Diags, Diag{
				Kind: DiagConstLUT,
				Elem: i,
				Msg:  fmt.Sprintf("CLB %d LUT output is constant over its connected pins", i),
			})
			continue
		}
		ignored := -1
		floating := -1
		for pin := 0; pin < 4; pin++ {
			connected := mask>>pin&1 != 0
			indep := inputIgnoredUnder(c.Table, pin, mask)
			if connected && indep && ignored < 0 {
				ignored = pin
			}
			if !connected && !indep && floating < 0 {
				floating = pin
			}
		}
		if ignored >= 0 {
			r.Diags = append(r.Diags, Diag{
				Kind: DiagConstLUT,
				Elem: i,
				Msg:  fmt.Sprintf("CLB %d LUT table ignores connected pin %d; foldable", i, ignored),
			})
		}
		if floating >= 0 {
			r.Diags = append(r.Diags, Diag{
				Kind: DiagFloatingInput,
				Elem: i,
				Msg:  fmt.Sprintf("CLB %d LUT table depends on unconnected pin %d (reads as 0)", i, floating),
			})
		}
	}

	sortDiags(r.Diags)
	return r, nil
}

// constOverMask reports whether tbl is constant when unconnected pins
// (outside mask) are held at zero.
func constOverMask(tbl uint16, mask int) bool {
	first, set := false, false
	for idx := 0; idx < 16; idx++ {
		if idx&^mask != 0 {
			continue // an unconnected pin would have to be 1
		}
		bit := tbl>>idx&1 != 0
		if !set {
			first, set = bit, true
		} else if bit != first {
			return false
		}
	}
	return true
}

// inputIgnoredUnder reports whether tbl is independent of pin when the
// pins outside mask (other than pin itself) are held at zero.
func inputIgnoredUnder(tbl uint16, pin int, mask int) bool {
	reachable := mask | 1<<pin
	for idx := 0; idx < 16; idx++ {
		if idx&^reachable != 0 || idx>>pin&1 != 0 {
			continue
		}
		if tbl>>idx&1 != tbl>>(idx|1<<pin)&1 {
			return false
		}
	}
	return true
}
