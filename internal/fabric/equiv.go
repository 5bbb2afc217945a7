package fabric

// Formal equivalence checking across the three execution substrates:
// structural netlists, array configurations (the interpretive
// PFU) and compiled programs (Instance). Netlists and configurations
// lower to one normalized symbolic circuit — inputs, registers,
// hash-consed LUT gates, output obligations and next-state functions —
// and the prover builds canonical BDDs (bdd.go) for every output cone of
// both sides under a shared variable order, so equivalence is reference
// equality. A compiled program is validated op by op against its
// configuration's lowering instead (Compiled.Verify).
//
// Sequential circuits are proved under the natural register
// correspondence: registers are partitioned into equivalence classes by
// van-Eijk-style refinement, seeded by initial value and split until
// every class has one next-state function under the class abstraction.
// The fixpoint partition is inductive (class-mates start equal and stay
// equal), so output equality over the abstracted state space implies
// equality on every reachable state. The method is sound but
// incomplete: circuits that re-encode their state (no per-register
// correspondence) can be reported inequivalent with a counterexample
// state that no execution reaches — the counterexample is always a
// concrete state pair and input vector that the simulators reproduce,
// but it is "reachable" only up to the register correspondence.

import (
	"fmt"
	"sort"
)

// inKey names one bit at a circuit boundary: an input or output port
// bit. Two circuits are comparable when their input and output key sets
// match exactly.
type inKey struct {
	Port string
	Bit  int
}

func (k inKey) String() string { return fmt.Sprintf("%s[%d]", k.Port, k.Bit) }

// Operand references in a symbolic circuit: non-negative refs index the
// value array laid out [inputs | registers | gates]; the two negative
// refs are the boolean constants.
const (
	symConst0 int32 = -1
	symConst1 int32 = -2
)

// symGate is one hash-consed LUT gate: a truth table over four operand
// refs (unused positions hold symConst0 and a table that ignores them).
// The struct doubles as the structural-hashing key.
type symGate struct {
	in  [4]int32
	tab uint16
}

// outObl is one output obligation: the named boundary bit and the ref
// computing it.
type outObl struct {
	key inKey
	ref int32
}

// symCircuit is the normalized form every substrate lowers to. Gates
// are in topological order (a gate's operands are strictly earlier
// refs). regSlot maps each register to its position in the substrate's
// state frame (FF index for netlists, CLB index for configurations), so
// counterexample states load directly into a netlist simulator, a PFU or
// an Instance.
type symCircuit struct {
	name     string
	inputs   []inKey
	regInit  []bool
	regSlot  []int
	stateLen int
	gates    []symGate
	outs     []outObl
	next     []int32 // next-state ref per register; self-ref = hold
}

func (c *symCircuit) gateBase() int32 { return int32(len(c.inputs) + len(c.regInit)) }
func (c *symCircuit) regRef(r int) int32 {
	return int32(len(c.inputs) + r)
}

// symBuilder appends normalized gates: constant operands fold into the
// table, ignored operands drop, buffers alias, and structurally equal
// gates share one ref (congruence closure, since operands are already
// canonical).
type symBuilder struct {
	c *symCircuit
	// strash is an open-addressing hash set over c.gates: each slot holds
	// 1 + a gate index, 0 when empty. Its length is a power of two kept
	// at least twice the gate count.
	strash []int32
}

// newSymBuilder returns a builder appending to c, which has no gates
// yet, sized for about gates gates before anything grows.
func newSymBuilder(c *symCircuit, gates int) *symBuilder {
	c.gates = make([]symGate, 0, gates)
	return &symBuilder{c: c, strash: make([]int32, ceilPow2(max(2*gates, 64)))}
}

func (b *symBuilder) addGate(in [4]int32, tab uint16) int32 {
	tab, g, k := foldLUT(tab, in, symConst0, func(r int32) (bool, bool) {
		return r == symConst1, r == symConst0 || r == symConst1
	})
	if k == 0 {
		if tab&1 != 0 {
			return symConst1
		}
		return symConst0
	}
	if k == 1 && tab == 0xAAAA {
		return g[0] // buffer
	}
	return b.intern(symGate{in: g, tab: tab})
}

// intern returns the ref of a normalized gate, appending it if no equal
// gate exists yet.
func (b *symBuilder) intern(key symGate) int32 {
	gates := b.c.gates
	if 2*(len(gates)+1) > len(b.strash) {
		b.strash = make([]int32, 2*len(b.strash))
		for g := range gates {
			b.strash[b.slot(gates[g])] = int32(g) + 1
		}
	}
	i := b.slot(key)
	if g := b.strash[i]; g > 0 {
		return b.c.gateBase() + g - 1
	}
	b.c.gates = append(gates, key)
	b.strash[i] = int32(len(b.c.gates))
	return b.c.gateBase() + int32(len(gates))
}

// slot finds key's strash slot by linear probing: the slot holding an
// equal gate, or the empty slot where it belongs.
func (b *symBuilder) slot(key symGate) int {
	h := uint64(key.tab)
	for _, x := range key.in {
		h = (h ^ uint64(uint32(x))) * 0x9E3779B97F4A7C15
	}
	mask := len(b.strash) - 1
	for i := int(h>>32) & mask; ; i = (i + 1) & mask {
		if g := b.strash[i]; g == 0 || b.c.gates[g-1] == key {
			return i
		}
	}
}

// netlistSym lowers a structural netlist. Registers are the flip-flops
// in index order.
func netlistSym(n *Netlist) (*symCircuit, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	c := &symCircuit{name: n.Name, stateLen: len(n.FFs)}
	ref := make([]int32, n.NumNets)
	for i := range ref {
		ref[i] = symConst0 // unreadable without a driver (Validate)
	}
	for _, p := range n.Ports {
		if p.Dir != DirIn {
			continue
		}
		for bit, net := range p.Nets {
			ref[net] = int32(len(c.inputs))
			c.inputs = append(c.inputs, inKey{Port: p.Name, Bit: bit})
		}
	}
	for i := range n.FFs {
		ref[n.FFs[i].Q] = c.regRef(i)
		c.regInit = append(c.regInit, n.FFs[i].Init)
		c.regSlot = append(c.regSlot, i)
	}
	b := newSymBuilder(c, len(order))
	for _, li := range order {
		l := &n.LUTs[li]
		var in [4]int32
		for p := 0; p < 4; p++ {
			if l.In[p] == NilNet {
				in[p] = symConst0
			} else {
				in[p] = ref[l.In[p]]
			}
		}
		ref[l.Out] = b.addGate(in, l.Table)
	}
	for _, p := range n.Ports {
		if p.Dir != DirOut {
			continue
		}
		for bit, net := range p.Nets {
			c.outs = append(c.outs, outObl{key: inKey{Port: p.Name, Bit: bit}, ref: ref[net]})
		}
	}
	for i := range n.FFs {
		c.next = append(c.next, ref[n.FFs[i].D])
	}
	return c, nil
}

// configSym lowers an array configuration, mirroring PFU.Step exactly.
// The boundary is the PFU protocol: inputs a[32] b[32] init[1], outputs
// out[32] done[1]. Registers are the CLBs whose output wire is the
// flip-flop (FlagOutFF), whose Q bits logic can observe, plus the
// flip-flops that latch without driving their wire, which only the state
// frame shows; the state-frame slot is the CLB index. Next-state per
// register follows the clock-edge dispatch of PFU.Step: pin-fed
// registers latch their routed wire, LUT-fed registers latch their LUT's
// value whether or not the CLB outputs it, registers with no update path
// (including FlagFFUsed clear) hold. Compile builds on this lowering, so
// it covers every register a frame carries.
func configSym(cfg *ArrayConfig) (*symCircuit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lv, err := levelizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	ncl := cfg.Spec.CLBs()
	c := &symCircuit{name: "config", stateLen: ncl}
	pfuBoundary(c)
	regOf := make([]int32, ncl)
	for i := range regOf {
		regOf[i] = -1
	}
	for i := range cfg.CLBs {
		f := cfg.CLBs[i].Flags
		latches := f&FlagFFUsed != 0 && f&(FlagFFFromPin|FlagLUTUsed) != 0
		if f&FlagOutFF != 0 || latches {
			regOf[i] = int32(len(c.regInit))
			c.regInit = append(c.regInit, cfg.CLBs[i].Flags&FlagFFInit != 0)
			c.regSlot = append(c.regSlot, i)
		}
	}
	gateOf := make([]int32, ncl)
	for i := range gateOf {
		gateOf[i] = symConst0
	}
	// wireRef resolves one biased routing select: input wires map to the
	// identically ordered input refs; CLB wires expose the register for
	// FF-driven outputs, the LUT gate for combinational outputs, and
	// constant 0 for unused CLBs (their wire is never written).
	wireRef := func(sel uint16) int32 {
		if sel == 0 {
			return symConst0
		}
		w := int(sel) - 1
		if w < WireCLB0 {
			return int32(w)
		}
		src := w - WireCLB0
		cc := &cfg.CLBs[src]
		switch {
		case cc.Flags&FlagOutFF != 0:
			return c.regRef(int(regOf[src]))
		case cc.Flags&FlagLUTUsed != 0:
			return gateOf[src]
		default:
			return symConst0
		}
	}
	b := newSymBuilder(c, len(lv.order))
	for _, i := range lv.order {
		cc := &cfg.CLBs[i]
		var in [4]int32
		for p := 0; p < 4; p++ {
			in[p] = wireRef(cc.InSel[p])
		}
		gateOf[i] = b.addGate(in, cc.Table)
	}
	for i, sel := range cfg.OutSel {
		c.outs = append(c.outs, outObl{key: pfuOutKey(i), ref: wireRef(sel)})
	}
	c.next = make([]int32, len(c.regInit))
	for i := range cfg.CLBs {
		r := regOf[i]
		if r < 0 {
			continue
		}
		cc := &cfg.CLBs[i]
		self := c.regRef(int(r))
		switch {
		case cc.Flags&FlagFFUsed == 0:
			c.next[r] = self
		case cc.Flags&FlagFFFromPin != 0:
			c.next[r] = wireRef(cc.InSel[0])
		case cc.Flags&FlagLUTUsed != 0:
			c.next[r] = gateOf[i]
		default:
			c.next[r] = self
		}
	}
	return c, nil
}

// pfuBoundary installs the PFU protocol input keys: a[0..31], b[0..31],
// init — in exactly the wire-enumeration order, so input wire w is
// input ref w.
func pfuBoundary(c *symCircuit) {
	for bit := 0; bit < 32; bit++ {
		c.inputs = append(c.inputs, inKey{Port: "a", Bit: bit})
	}
	for bit := 0; bit < 32; bit++ {
		c.inputs = append(c.inputs, inKey{Port: "b", Bit: bit})
	}
	c.inputs = append(c.inputs, inKey{Port: "init", Bit: 0})
}

func pfuOutKey(i int) inKey {
	if i == 32 {
		return inKey{Port: "done", Bit: 0}
	}
	return inKey{Port: "out", Bit: i}
}

// EquivReport is the result of one equivalence proof.
type EquivReport struct {
	A, B       string
	Equivalent bool
	Outputs    int // output obligations compared
	Registers  int // registers across both sides
	Classes    int // correspondence classes at the fixpoint
	Rounds     int // refinement rounds (1 for combinational circuits)
	Nodes      int // peak BDD nodes over all rounds
	Exhaustive int // obligations proved by exhaustive enumeration
	// Counterexample is non-nil iff Equivalent is false.
	Counterexample *Counterexample
}

func (r *EquivReport) String() string {
	if r.Equivalent {
		return fmt.Sprintf("equiv %s vs %s: EQUIVALENT (%d outputs, %d registers in %d classes, %d rounds, %d BDD nodes, %d exhaustive)",
			r.A, r.B, r.Outputs, r.Registers, r.Classes, r.Rounds, r.Nodes, r.Exhaustive)
	}
	return fmt.Sprintf("equiv %s vs %s: NOT EQUIVALENT: %s", r.A, r.B, r.Counterexample)
}

// Counterexample is one concrete input vector and state pair under
// which the two circuits disagree on the named output bit. States are
// full register states in each side's native layout: a netlist state is
// indexed by flip-flop, a CLB state has one bit per CLB in CLB order.
// The disagreement shows in the same cycle's sampled outputs. For
// sequential circuits the state respects the proven register
// correspondence but may be unreachable from reset (see package
// comment).
type Counterexample struct {
	Port   string
	Bit    int
	Inputs map[string]uint64 // input port -> bit vector
	StateA []bool
	StateB []bool
	OutA   bool
	OutB   bool
}

func (ce *Counterexample) String() string {
	ports := make([]string, 0, len(ce.Inputs))
	//lint:nondeterministic keys are sorted before rendering
	for p := range ce.Inputs {
		ports = append(ports, p)
	}
	sort.Strings(ports)
	s := fmt.Sprintf("%s[%d]: A=%v B=%v under", ce.Port, ce.Bit, ce.OutA, ce.OutB)
	for _, p := range ports {
		s += fmt.Sprintf(" %s=%#x", p, ce.Inputs[p])
	}
	return s
}

// proveOpts bounds one proof; tests shrink the limits to exercise the
// fallback paths.
type proveOpts struct {
	nodeLimit int // BDD node budget per round
	exhMax    int // max support size for exhaustive enumeration
}

var defaultProveOpts = proveOpts{nodeLimit: 1 << 21, exhMax: 12}

// Equiv proves two netlists equivalent: same input/output port bits,
// same observable behaviour from corresponding initial states, under
// the natural FF-by-FF register correspondence. A nil error with
// Equivalent false carries a concrete counterexample; errors report
// circuits the method cannot decide (boundary mismatch, BDD blowup on
// sequential logic).
func Equiv(a, b *Netlist) (*EquivReport, error) {
	sa, err := netlistSym(a)
	if err != nil {
		return nil, err
	}
	sb, err := netlistSym(b)
	if err != nil {
		return nil, err
	}
	return prove(sa, sb, defaultProveOpts)
}

// EquivConfig proves a placed configuration equivalent to a PFU-shaped
// netlist (ports a[32], b[32], init[1], out[32], done[1]) — the
// Place/Encode/Decode pipeline preserved the circuit.
func EquivConfig(cfg *ArrayConfig, n *Netlist) (*EquivReport, error) {
	sa, err := configSym(cfg)
	if err != nil {
		return nil, err
	}
	sb, err := netlistSym(n)
	if err != nil {
		return nil, err
	}
	return prove(sa, sb, defaultProveOpts)
}

// Verify checks the compiled program against the configuration it was
// lowered from, by translation validation of all three schedules. It
// lowers cfg and unrolls it again as Compile does, then re-lifts sched[1]
// against the init-high cycle, sched[0] against the init-low cycle and the
// burst against the whole instruction (relift). Each half of each op
// stands for its witness, a ref of the unrolled builder, and is accepted
// only when its table is the function of the witness's cone over the refs
// its input wires hold (checkWitness); its wire then holds the witness's
// value, so by induction over the ops every wire does. The empty high
// half of an op with one LUT has witness symConst0, so its table must be
// 0. Refs are canonical within one hash-consing builder, so requiring
// every out, done and next-state ref to be identical shows that the ops
// compute exactly the configuration's cycle or instruction, whatever cover
// the mapper chose and however emit paired its LUTs. Each register must
// also power on at the configuration's value. The error names the
// schedule and the op that fail.
func (c *Compiled) Verify(cfg *ArrayConfig) error {
	if c.spec != cfg.Spec {
		return fmt.Errorf("fabric: Verify: program spec %dx%d does not match config spec %dx%d",
			c.spec.W, c.spec.H, cfg.Spec.W, cfg.Spec.H)
	}
	cyc, err := configSym(cfg)
	if err != nil {
		return err
	}
	u := unroll(cyc)
	if u.k != c.burstK {
		return fmt.Errorf("fabric: burst runs %d cycles, the configuration unrolls to %d", c.burstK, u.k)
	}
	regOf := make([]int32, cyc.stateLen)
	for i := range regOf {
		regOf[i] = -1
	}
	for r, slot := range cyc.regSlot {
		if (c.ffInit[slot] != 0) != cyc.regInit[r] {
			return fmt.Errorf("fabric: the register of CLB %d powers on at %d, unlike the configuration's", slot, c.ffInit[slot])
		}
		regOf[slot] = int32(r)
	}
	sc := u.b.c
	n := int(sc.gateBase()) + len(sc.gates)
	e := &coneEval{sc: sc, seen: make([]uint32, n), val: make([]bool, n)}
	passes := []struct {
		name string
		s    *schedule
		want cycleRefs
	}{
		{"init=1 schedule", &c.sched[1], u.high},
		{"init=0 schedule", &c.sched[0], u.low},
		{"burst", &c.burst, u.burst},
	}
	if u.k == 0 {
		passes = passes[:2]
	}
	for _, p := range passes {
		if err := e.relift(p.s, p.want, regOf, c.nWires); err != nil {
			return fmt.Errorf("fabric: %s %w", p.name, err)
		}
	}
	return nil
}

// relift symbolically executes one pass of schedule s over a wire scratch
// of nWires wires, each half of op k standing for its witness, and
// requires the pass to sample want's refs at its output taps and latch
// want's next-state ref into each register (a register it does not latch
// holds). regOf maps frame slots to the registers of e.sc. The pass is
// modelled as run executes it: the operand wires, the constant wires and
// the registers the pass refreshes hold their values on entry, then op k
// reads its four input wires and writes the low half to wire out0+2k and
// the high half to out0+2k+1. Every other wire holds whatever an earlier
// pass left, so reading a wire before this pass writes it is an error, not
// a proof obligation.
func (e *coneEval) relift(s *schedule, want cycleRefs, regOf []int32, nWires int) error {
	if len(s.in) != len(s.tab) || len(s.wit) != 2*len(s.tab) {
		return fmt.Errorf("has %d tables, %d input sets and %d witnesses", len(s.tab), len(s.in), len(s.wit))
	}
	if s.out0 < wireReg0 || int(s.out0)+2*len(s.tab) > nWires {
		return fmt.Errorf("writes wires %d to %d of a %d-wire scratch", s.out0, int(s.out0)+2*len(s.tab)-1, nWires)
	}
	val := make([]int32, nWires)
	set := make([]bool, nWires)
	for w := WireA0; w < WireInit; w++ {
		val[w], set[w] = int32(w), true
	}
	val[wireConst0], val[wireConst1] = symConst0, symConst1
	set[wireConst0], set[wireConst1] = true, true
	reg := func(slot int32) (int, error) {
		if slot >= 0 && int(slot) < len(regOf) && regOf[slot] >= 0 {
			return int(regOf[slot]), nil
		}
		return 0, fmt.Errorf("moves frame slot %d, which holds no register", slot)
	}
	for _, m := range s.refresh {
		r, err := reg(m.slot)
		if err != nil {
			return err
		}
		if m.wire < wireReg0 || m.wire >= int32(s.out0) {
			return fmt.Errorf("refreshes CLB %d into wire %d, outside its register wires", m.slot, m.wire)
		}
		val[m.wire], set[m.wire] = e.sc.regRef(r), true
	}
	stale := int64(-1)
	read := func(w uint32) int32 {
		if int(w) < nWires && set[w] {
			return val[w]
		}
		if stale < 0 {
			stale = int64(w)
		}
		return symConst0
	}
	for k := range s.in {
		var in [4]int32
		for p := range in {
			in[p] = read(s.in[k][p])
		}
		if stale >= 0 {
			return fmt.Errorf("op %d reads wire %d before writing it", k, stale)
		}
		for half := range 2 {
			wit := s.wit[2*k+half]
			if err := e.checkWitness(wit, in, uint16(s.tab[k]>>(16*half))); err != nil {
				return fmt.Errorf("op %d half %d %w", k, half, err)
			}
			w := int(s.out0) + 2*k + half
			val[w], set[w] = wit, true
		}
	}
	var outs [33]int32
	for i, tap := range s.outTap {
		outs[i] = read(uint32(tap))
	}
	next := make([]int32, len(want.next))
	for r := range next {
		next[r] = e.sc.regRef(r) // hold unless latched
	}
	for _, m := range s.latch {
		r, err := reg(m.slot)
		if err != nil {
			return err
		}
		next[r] = read(uint32(m.wire))
	}
	if stale >= 0 {
		return fmt.Errorf("reads wire %d before writing it", stale)
	}
	for i := range outs {
		if outs[i] != want.outs[i] {
			return fmt.Errorf("%s differs from the configuration", pfuOutKey(i))
		}
	}
	for r := range next {
		if next[r] != want.next[r] {
			return fmt.Errorf("latches CLB %d differently from the configuration", e.sc.regSlot[r])
		}
	}
	return nil
}

// coneEval evaluates refs of sc concretely with a set of refs as free
// leaves; val[ref] is valid when seen[ref] == stamp.
type coneEval struct {
	sc    *symCircuit
	seen  []uint32
	val   []bool
	stamp uint32
}

// checkWitness requires tab, over the pins whose refs are in, to be the
// function the gate ref wit (or symConst0, the constant 0) computes of
// those refs: for each of the 16 pin assignments that gives a constant pin
// its constant and pins sharing a ref one value, it evaluates wit's cone
// with the pins' refs as free leaves and compares the table's entry. A
// cone that reaches an input or register that is not a pin fails.
func (e *coneEval) checkWitness(wit int32, in [4]int32, tab uint16) error {
	base := e.sc.gateBase()
	if wit != symConst0 && (wit < base || wit >= base+int32(len(e.sc.gates))) {
		return fmt.Errorf("stands for ref %d, which is no gate", wit)
	}
assign:
	for m := range 16 {
		e.stamp++
		for p, ref := range in {
			v := m>>p&1 != 0
			switch {
			case ref == symConst0 || ref == symConst1:
				if v != (ref == symConst1) {
					continue assign
				}
			case e.seen[ref] == e.stamp && e.val[ref] != v:
				continue assign
			default:
				e.seen[ref], e.val[ref] = e.stamp, v
			}
		}
		got, err := e.eval(wit)
		if err != nil {
			return err
		}
		if got != (tab>>m&1 != 0) {
			return fmt.Errorf("table entry %d differs from its witness %d", m, wit)
		}
	}
	return nil
}

func (e *coneEval) eval(ref int32) (bool, error) {
	switch {
	case ref == symConst0:
		return false, nil
	case ref == symConst1:
		return true, nil
	case e.seen[ref] == e.stamp:
		return e.val[ref], nil
	case ref < e.sc.gateBase():
		return false, fmt.Errorf("reaches %s, which is not one of its inputs", e.refName(ref))
	}
	gt := &e.sc.gates[ref-e.sc.gateBase()]
	idx := 0
	for p, x := range gt.in {
		v, err := e.eval(x)
		if err != nil {
			return false, err
		}
		if v {
			idx |= 1 << p
		}
	}
	v := gt.tab>>idx&1 != 0
	e.seen[ref], e.val[ref] = e.stamp, v
	return v, nil
}

// refName names an input or register ref for an error.
func (e *coneEval) refName(ref int32) string {
	if int(ref) < len(e.sc.inputs) {
		return e.sc.inputs[ref].String()
	}
	return fmt.Sprintf("the register of CLB %d", e.sc.regSlot[int(ref)-len(e.sc.inputs)])
}

// OptimizeChecked optimizes n in place like Optimize and then proves
// the result equivalent to the original, returning the removed element
// count and the proof. A failed proof returns the report (with its
// counterexample) and a non-nil error; n is left in its optimized
// state.
func OptimizeChecked(n *Netlist) (int, *EquivReport, error) {
	orig := n.Clone()
	removed := Optimize(n)
	rep, err := Equiv(orig, n)
	if err != nil {
		return removed, nil, fmt.Errorf("fabric: OptimizeChecked %q: %w", n.Name, err)
	}
	if !rep.Equivalent {
		return removed, rep, fmt.Errorf("fabric: Optimize changed behaviour of %q: %s", n.Name, rep.Counterexample)
	}
	return removed, rep, nil
}

// obligation pairs one output bit across the two sides.
type obligation struct {
	key        inKey
	aRef, bRef int32
}

// prove runs the equivalence engine over two symbolic circuits.
func prove(a, b *symCircuit, opts proveOpts) (*EquivReport, error) {
	rep := &EquivReport{A: a.name, B: b.name}
	// Boundary matching: identical input and output key sets. Globals
	// are indexed in A's declaration order.
	keys := a.inputs
	nIn := len(keys)
	inIdx := make(map[inKey]int32, nIn)
	for i, k := range keys {
		inIdx[k] = int32(i)
	}
	if len(b.inputs) != nIn {
		return nil, fmt.Errorf("fabric: equiv %s vs %s: input boundaries differ (%d vs %d bits)", a.name, b.name, nIn, len(b.inputs))
	}
	bInG := make([]int32, len(b.inputs))
	for i, k := range b.inputs {
		g, ok := inIdx[k]
		if !ok {
			return nil, fmt.Errorf("fabric: equiv %s vs %s: input %s only on one side", a.name, b.name, k)
		}
		bInG[i] = g
	}
	aInG := make([]int32, nIn)
	for i := range aInG {
		aInG[i] = int32(i)
	}
	bOut := make(map[inKey]int32, len(b.outs))
	for _, o := range b.outs {
		bOut[o.key] = o.ref
	}
	if len(b.outs) != len(a.outs) {
		return nil, fmt.Errorf("fabric: equiv %s vs %s: output boundaries differ (%d vs %d bits)", a.name, b.name, len(a.outs), len(b.outs))
	}
	obls := make([]obligation, 0, len(a.outs))
	for _, o := range a.outs {
		ref, ok := bOut[o.key]
		if !ok {
			return nil, fmt.Errorf("fabric: equiv %s vs %s: output %s only on one side", a.name, b.name, o.key)
		}
		obls = append(obls, obligation{key: o.key, aRef: o.ref, bRef: ref})
	}
	rep.Outputs = len(obls)

	outA, outB := neededGates(a, false), neededGates(b, false)
	neededA := neededGates(a, true)
	neededB := neededGates(b, true)
	depthA := gateDepths(a)
	depthB := gateDepths(b)

	// Register classes over the combined register space, A's first,
	// seeded by initial value (class-mates must start equal).
	nRegA := len(a.regInit)
	nReg := nRegA + len(b.regInit)
	rep.Registers = nReg
	cls := make([]int32, nReg)
	nClass := 0
	initID := [2]int32{-1, -1}
	for i := 0; i < nReg; i++ {
		var iv bool
		if i < nRegA {
			iv = a.regInit[i]
		} else {
			iv = b.regInit[i-nRegA]
		}
		bit := 0
		if iv {
			bit = 1
		}
		if initID[bit] < 0 {
			initID[bit] = int32(nClass)
			nClass++
		}
		cls[i] = initID[bit]
	}

	for {
		res, overflow := proveRound(a, b, aInG, bInG, cls, nClass, nIn, outA, outB, neededA, neededB, depthA, depthB, obls, opts)
		if overflow {
			if nReg == 0 {
				return proveExhaustive(a, b, keys, aInG, bInG, obls, rep, opts.exhMax)
			}
			return nil, fmt.Errorf("fabric: equiv %s vs %s: BDD node limit (%d) exceeded on sequential logic; no exhaustive fallback",
				a.name, b.name, opts.nodeLimit)
		}
		rep.Rounds++
		if res.nodes > rep.Nodes {
			rep.Nodes = res.nodes
		}
		if res.done {
			rep.Classes = nClass
			rep.Equivalent = res.ce == nil
			rep.Counterexample = res.ce
			return rep, nil
		}
		cls, nClass = res.cls, res.nClass
		if rep.Rounds > nReg+1 {
			return nil, fmt.Errorf("fabric: equiv %s vs %s: refinement did not converge", a.name, b.name)
		}
	}
}

// roundResult carries one refinement round's outcome.
type roundResult struct {
	done   bool
	cls    []int32
	nClass int
	nodes  int
	ce     *Counterexample
}

// proveRound builds one round's output-cone BDDs and compares the
// obligations under the current register partition, then builds the
// next-state BDDs and refines the partition. Checking the outputs first
// is sound at every round, not just the fixpoint: a coarser partition
// only restricts the expressible states (class-mates forced equal), so
// any distinguishing assignment it yields is a concrete state pair on
// which the circuits genuinely differ — and it makes inequivalent
// sequential circuits fail fast, before the (often much larger)
// next-state functions are ever built. Equivalence is still only
// concluded once the partition is inductive. overflow reports that the
// node limit was hit.
func proveRound(a, b *symCircuit, aInG, bInG, cls []int32, nClass, nIn int, outA, outB, neededA, neededB []bool, depthA, depthB []int32, obls []obligation, opts proveOpts) (res roundResult, overflow bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bddLimitError); ok {
				overflow = true
				return
			}
			panic(r)
		}
	}()
	nRegA := len(a.regInit)
	clsA, clsB := cls[:nRegA], cls[nRegA:]
	rank := varOrder(a, b, aInG, bInG, clsA, clsB, nIn, nClass, depthA, depthB)
	m := newBDDManager(opts.nodeLimit)
	valsA := buildSide(m, a, aInG, clsA, rank, nIn, outA)
	valsB := buildSide(m, b, bInG, clsB, rank, nIn, outB)
	for _, o := range obls {
		fa := refBDD(valsA, o.aRef)
		fb := refBDD(valsB, o.bRef)
		if fa == fb {
			continue
		}
		// satOne fills the assignment by BDD rank; undo the ordering
		// permutation so buildCE can index by global variable id.
		byRank := make([]int8, nIn+nClass)
		m.satOne(m.xor(fa, fb), byRank)
		assign := make([]int8, nIn+nClass)
		for v := range assign {
			assign[v] = byRank[rank[v]]
		}
		res.done = true
		res.ce = buildCE(a, b, o, a.inputs, aInG, bInG, clsA, clsB, nIn, assign)
		res.nodes = len(m.nodes)
		return res, false
	}
	buildGates(m, a, valsA, neededA, outA)
	buildGates(m, b, valsB, neededB, outB)

	// Refine: split classes by (old class, canonical next-state ref).
	nReg := len(cls)
	newCls := make([]int32, nReg)
	sig := make(map[[2]int32]int32, nReg)
	var n int32
	for i := 0; i < nReg; i++ {
		var nx bddRef
		if i < nRegA {
			nx = refBDD(valsA, a.next[i])
		} else {
			nx = refBDD(valsB, b.next[i-nRegA])
		}
		k := [2]int32{cls[i], int32(nx)}
		id, ok := sig[k]
		if !ok {
			id = n
			n++
			sig[k] = id
		}
		newCls[i] = id
	}
	res.nodes = len(m.nodes)
	if int(n) != nClass {
		// Split happened: refinement only splits, so a changed count
		// means a changed partition; go again with the finer classes.
		res.cls, res.nClass = newCls, int(n)
		return res, false
	}
	// Fixpoint: the partition is inductive, and the obligations already
	// passed at the top of this round under exactly this partition —
	// equivalence is proved.
	res.done = true
	return res, false
}

// refBDD resolves an operand ref against a side's value array.
func refBDD(vals []bddRef, ref int32) bddRef {
	switch ref {
	case symConst0:
		return bddFalse
	case symConst1:
		return bddTrue
	}
	return vals[ref]
}

// buildSide seeds one circuit's leaf values — input and register
// variables under the shared ranks and classes — and builds the gates
// marked in needed. More gates can be added later with buildGates.
func buildSide(m *bddManager, c *symCircuit, inG []int32, cls []int32, rank []int32, nIn int, needed []bool) []bddRef {
	vals := make([]bddRef, int(c.gateBase())+len(c.gates))
	for i := range c.inputs {
		vals[i] = m.varNode(rank[inG[i]])
	}
	for r := range c.regInit {
		vals[c.regRef(r)] = m.varNode(rank[nIn+int(cls[r])])
	}
	buildGates(m, c, vals, needed, nil)
	return vals
}

// buildGates builds the gates marked in needed, skipping any already
// built in an earlier pass (marked in done).
func buildGates(m *bddManager, c *symCircuit, vals []bddRef, needed, done []bool) {
	base := int(c.gateBase())
	for g := range c.gates {
		if !needed[g] || (done != nil && done[g]) {
			continue
		}
		gt := &c.gates[g]
		var in [4]bddRef
		for p := 0; p < 4; p++ {
			in[p] = refBDD(vals, gt.in[p])
		}
		vals[base+g] = m.lutBDD(gt.tab, in)
	}
}

// neededGates marks the gates reachable backwards from any output — and,
// with withNext, any next-state ref — so dead cones cost no BDD nodes
// and the cheap output cones can be built before the next-state logic.
func neededGates(c *symCircuit, withNext bool) []bool {
	needed := make([]bool, len(c.gates))
	base := c.gateBase()
	seed := func(ref int32) {
		if ref >= base {
			needed[ref-base] = true
		}
	}
	for _, o := range c.outs {
		seed(o.ref)
	}
	if withNext {
		for _, nx := range c.next {
			seed(nx)
		}
	}
	for g := len(c.gates) - 1; g >= 0; g-- {
		if !needed[g] {
			continue
		}
		for _, in := range c.gates[g].in {
			seed(in)
		}
	}
	return needed
}

// gateDepths computes per-gate cone depth, the guide for the variable
// ordering heuristic.
func gateDepths(c *symCircuit) []int32 {
	depth := make([]int32, len(c.gates))
	base := c.gateBase()
	for g := range c.gates {
		var d int32
		for _, in := range c.gates[g].in {
			if in >= base {
				if dd := depth[in-base] + 1; dd > d {
					d = dd
				}
			}
		}
		depth[g] = d
	}
	return depth
}

// varOrder assigns every BDD variable — one per input key, one per
// register class — a rank by a depth-guided DFS preorder over both
// circuits' cones: from each output (then next-state function), explore
// the shallowest fanin cone first. Shallow-first exploration ranks
// control ahead of data (a barrel shifter's select bits come before the
// shifted word, keeping its BDDs linear) and walking outputs LSB-first
// interleaves adder operands (a[0] b[0] a[1] b[1] …), the order under
// which ripple carries stay linear.
func varOrder(a, b *symCircuit, aInG, bInG, clsA, clsB []int32, nIn, nClass int, depthA, depthB []int32) []int32 {
	rank := make([]int32, nIn+nClass)
	for i := range rank {
		rank[i] = -1
	}
	var next int32
	assign := func(v int32) {
		if rank[v] == -1 {
			rank[v] = next
			next++
		}
	}
	refDepth := func(c *symCircuit, depth []int32, ref int32) int32 {
		if ref >= c.gateBase() {
			return depth[ref-c.gateBase()] + 1
		}
		return 0
	}
	visitSide := func(c *symCircuit, inG, cls, depth []int32) {
		base := c.gateBase()
		seen := make([]bool, len(c.gates))
		var stack []int32
		walk := func(root int32) {
			if root < 0 {
				return
			}
			stack = append(stack[:0], root)
			for len(stack) > 0 {
				ref := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				switch {
				case ref < 0:
					// constant
				case ref < int32(len(c.inputs)):
					assign(inG[ref])
				case ref < base:
					assign(int32(nIn) + cls[ref-int32(len(c.inputs))])
				default:
					g := ref - base
					if seen[g] {
						continue
					}
					seen[g] = true
					// Push pins deepest first so the shallowest pops
					// (and is explored) first; ties keep pin order.
					type pin struct {
						ref int32
						d   int32
					}
					var pins [4]pin
					np := 0
					for p := 0; p < 4; p++ {
						in := c.gates[g].in[p]
						if in == symConst0 || in == symConst1 {
							continue
						}
						pins[np] = pin{ref: in, d: refDepth(c, depth, in)}
						np++
					}
					sort.SliceStable(pins[:np], func(i, j int) bool { return pins[i].d > pins[j].d })
					for p := 0; p < np; p++ {
						stack = append(stack, pins[p].ref)
					}
				}
			}
		}
		for _, o := range c.outs {
			walk(o.ref)
		}
		for _, nx := range c.next {
			walk(nx)
		}
	}
	visitSide(a, aInG, clsA, depthA)
	visitSide(b, bInG, clsB, depthB)
	for v := range rank {
		if rank[v] == -1 {
			rank[v] = next
			next++
		}
	}
	return rank
}

// buildCE turns a satisfying assignment of an output XOR into a
// concrete counterexample, re-evaluating both circuits concretely so
// the reported output values come from the gate-level semantics, not
// the BDDs.
func buildCE(a, b *symCircuit, o obligation, keys []inKey, aInG, bInG, clsA, clsB []int32, nIn int, assign []int8) *Counterexample {
	ce := &Counterexample{Port: o.key.Port, Bit: o.key.Bit, Inputs: map[string]uint64{}}
	for g, k := range keys {
		v := ce.Inputs[k.Port]
		if assign[g] == 2 {
			v |= 1 << k.Bit
		}
		ce.Inputs[k.Port] = v
	}
	side := func(c *symCircuit, inG, cls []int32, ref int32) ([]bool, bool) {
		inVal := make([]bool, len(c.inputs))
		for i := range inVal {
			inVal[i] = assign[inG[i]] == 2
		}
		regVal := make([]bool, len(c.regInit))
		for r := range regVal {
			regVal[r] = assign[nIn+int(cls[r])] == 2
		}
		st := make([]bool, c.stateLen)
		for r, slot := range c.regSlot {
			st[slot] = regVal[r]
		}
		return st, evalRef(c, inVal, regVal, ref)
	}
	ce.StateA, ce.OutA = side(a, aInG, clsA, o.aRef)
	ce.StateB, ce.OutB = side(b, bInG, clsB, o.bRef)
	return ce
}

// evalRef evaluates one ref concretely under an input and register
// assignment by a full forward pass over the gate list.
func evalRef(c *symCircuit, inVal, regVal []bool, ref int32) bool {
	vals := make([]bool, int(c.gateBase())+len(c.gates))
	copy(vals, inVal)
	copy(vals[len(c.inputs):], regVal)
	base := int(c.gateBase())
	for g := range c.gates {
		gt := &c.gates[g]
		idx := 0
		for p := 0; p < 4; p++ {
			if refBool(vals, gt.in[p]) {
				idx |= 1 << p
			}
		}
		vals[base+g] = gt.tab>>idx&1 != 0
	}
	return refBool(vals, ref)
}

func refBool(vals []bool, ref int32) bool {
	switch ref {
	case symConst0:
		return false
	case symConst1:
		return true
	}
	return vals[ref]
}

// proveExhaustive decides combinational obligations by enumerating the
// structural support when the BDDs blew past the node limit — the
// "small cones" fallback: sound and complete, but only affordable when
// each obligation depends on few input bits.
func proveExhaustive(a, b *symCircuit, keys []inKey, aInG, bInG []int32, obls []obligation, rep *EquivReport, exhMax int) (*EquivReport, error) {
	nIn := len(keys)
	for _, o := range obls {
		sup := make([]bool, nIn)
		inputSupport(a, aInG, o.aRef, sup)
		inputSupport(b, bInG, o.bRef, sup)
		var vars []int32
		for g := 0; g < nIn; g++ {
			if sup[g] {
				vars = append(vars, int32(g))
			}
		}
		if len(vars) > exhMax {
			return nil, fmt.Errorf("fabric: equiv %s vs %s: output %s has no small BDD and support %d exceeds the exhaustive limit %d",
				a.name, b.name, o.key, len(vars), exhMax)
		}
		inValA := make([]bool, len(a.inputs))
		inValB := make([]bool, len(b.inputs))
		for bits := 0; bits < 1<<len(vars); bits++ {
			assign := make([]int8, nIn)
			for j, g := range vars {
				if bits>>j&1 != 0 {
					assign[g] = 2
				} else {
					assign[g] = 1
				}
			}
			for i := range a.inputs {
				inValA[i] = assign[aInG[i]] == 2
			}
			for i := range b.inputs {
				inValB[i] = assign[bInG[i]] == 2
			}
			oa := evalRef(a, inValA, nil, o.aRef)
			ob := evalRef(b, inValB, nil, o.bRef)
			if oa != ob {
				rep.Equivalent = false
				rep.Counterexample = buildCE(a, b, o, keys, aInG, bInG, nil, nil, nIn, assign)
				return rep, nil
			}
		}
		rep.Exhaustive++
	}
	rep.Equivalent = true
	return rep, nil
}

// inputSupport marks (in global input indices) the inputs reachable
// backwards from ref.
func inputSupport(c *symCircuit, inG []int32, ref int32, sup []bool) {
	base := c.gateBase()
	needed := make([]bool, len(c.gates))
	mark := func(r int32) {
		switch {
		case r < 0:
		case r < int32(len(c.inputs)):
			sup[inG[r]] = true
		case r >= base:
			needed[r-base] = true
		}
	}
	mark(ref)
	for g := len(c.gates) - 1; g >= 0; g-- {
		if !needed[g] {
			continue
		}
		for _, in := range c.gates[g].in {
			mark(in)
		}
	}
}
