package fabric

import "encoding/binary"

// Compiled is a circuit program: a validated, levelized ArrayConfig
// lowered once into flat structure-of-arrays form that a tight,
// branch-free pass can execute. Where the interpretive PFU re-walks the
// CLB array each cycle — re-deriving input selects, flag dispatch and
// output taps from the configuration words — a Compiled program resolves
// all of that at compile time.
//
// There is one lowering. Compile builds the configuration's symbolic
// circuit (configSym, the prover's IR: inputs, registers and hash-consed
// LUT gates, with constants folded by foldLUT, buffers aliased and equal
// gates shared) and composes copies of it in one symBuilder with init
// pinned to a constant. Registers are input wires of the pass, and each
// register's next-state ref becomes a latch tap. emit re-covers the
// gates a set of roots needs with 4-input LUTs (the priority-cut mapper
// in lutmap.go) and pairs the LUTs that read one leaf set into one op,
// ordered by level, plus the output taps and latches. Three schedules
// come out of it:
//
//   - sched[1]: one cycle with init high (the first of an instruction);
//   - sched[0]: one cycle with init low (every later cycle);
//   - burst: the K composed cycles of a whole instruction issued fresh
//     (init 1,0,…,0), built only when done folds to constant 0 on cycles
//     1..K−1 and to constant 1 on cycle K. It writes the result, done and
//     every register's final value, and nothing of the cycles between.
//
// Each schedule writes every gate wire it reads before reading it, so no
// pass depends on what another left in the scratch; Compiled.Verify
// checks that while validating all three schedules op by op against the
// witnesses each op carries.
//
// Compilation happens once per distinct configuration; Instances stamped
// from the program carry only register state plus the wire scratch, so
// loading a circuit into a PFU slot is an allocation, not a decode.
// The interpretive PFU remains the reference model the compiled engine is
// differentially tested against.
type Compiled struct {
	spec   ArraySpec
	nWires int // wire scratch size: inputs, registers, constants, gates

	// sched[0] runs when init is low, sched[1] when it is high.
	sched [2]schedule
	// burst runs one whole instruction of burstK cycles; burstK is 0
	// when the circuit has none.
	burst  schedule
	burstK int

	luts   int     // LUTs the configuration evaluates per cycle, for Ops
	nRegs  int     // registers of the configuration's symbolic circuit
	ffInit []uint8 // power-on register values, one byte per CLB
}

// maxBurstCycles caps the instruction length Compile unrolls into a
// burst; longer instructions step per cycle.
const maxBurstCycles = 64

// Wire scratch layout. The 64 operand wires keep their array numbering.
// No pass writes the init wire (every schedule has init pinned), so it
// is the constant-0 wire; the constant-1 wire follows it, set once when
// an instance is stamped. Each pass gives the registers it reads wires
// wireReg0.. in register order, and its op k writes the wires 2k and
// 2k+1 after them.
const (
	wireConst0 = WireInit
	wireConst1 = WireInit + 1
	wireReg0   = WireInit + 2
)

// schedule is the work of one pass over the scratch.
type schedule struct {
	// Combinational ops ordered by dependency level: every input is
	// computed before its consumer. Each op is a pair of LUTs over one pin
	// set, like the two outputs of a fracturable LUT: op k reads wires
	// in[k] into one index, writes the low half of tab[k] at it to wire
	// out0+2k and the high half to wire out0+2k+1, so both store
	// addresses are known before its loads. An op with one LUT has a high
	// half of 0.
	// wit[2k] and wit[2k+1] are the refs of the unrolled builder the two
	// halves stand for (symConst0 for an empty high half); run never reads
	// them, Verify checks every schedule against them.
	in   [][4]uint32
	tab  []uint32
	wit  []int32
	out0 uint32

	// refresh copies the registers the pass reads into their wires
	// before it; latch copies each changed register's next value from its
	// tap wire back into the frame after the outputs are sampled.
	refresh []regMove
	latch   []regMove

	outTap [33]int32 // resolved output wire per out bit (32 = done)
}

// regMove pairs a register's frame slot (its CLB index) with a wire.
type regMove struct {
	slot, wire int32
}

// Compile validates and levelizes a configuration — rejecting the same
// combinational loops NewPFU rejects, so it doubles as the §2 functional
// security check — and lowers it into a Compiled program.
func Compile(cfg *ArrayConfig) (*Compiled, error) {
	cyc, err := configSym(cfg)
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		spec:   cfg.Spec,
		nRegs:  len(cyc.regInit),
		ffInit: make([]uint8, cfg.Spec.CLBs()),
	}
	for i := range cfg.CLBs {
		f := cfg.CLBs[i].Flags
		if f&FlagFFInit != 0 {
			c.ffInit[i] = 1
		}
		// A LUT whose CLB outputs a pin-fed register reaches nothing.
		if f&FlagLUTUsed != 0 && f&(FlagOutFF|FlagFFFromPin) != FlagOutFF|FlagFFFromPin {
			c.luts++
		}
	}
	u := unroll(cyc)
	// The burst, the pass instructions run, maps first: the gates it
	// shares with the cycle schedules keep the cuts it ranked.
	m := newMapper(u.b.c)
	if u.k > 0 {
		c.burst, c.burstK = c.emit(m, u.burst), u.k
	}
	c.sched[1] = c.emit(m, u.high)
	c.sched[0] = c.emit(m, u.low)
	// Round the scratch up to a power of two so the settle loop can mask
	// indices instead of bounds-checking them.
	c.nWires = ceilPow2(c.nWires)
	return c, nil
}

// cycleRefs are the refs one composed cycle produces: out[0..31] and
// done, and each register's next state.
type cycleRefs struct {
	outs [33]int32
	next []int32
}

// template is one cycle's logic ready to copy: the gates of c that its
// refs need, by index in ref order.
type template struct {
	c     *symCircuit
	gates []int32
	cycleRefs
}

func newTemplate(c *symCircuit, r cycleRefs) *template {
	t := &template{c: c, cycleRefs: r}
	for g, live := range liveGates(c, r.outs[:], r.next) {
		if live {
			t.gates = append(t.gates, int32(g))
		}
	}
	return t
}

// unrolled is a configuration's one-cycle circuit composed in one
// builder whose inputs and registers are the cycle's own: the cycle with
// init high and with init low, both from the registers, and — when done
// folds to constant 0 on cycles 1..k−1 and to constant 1 on cycle k,
// 2 ≤ k ≤ maxBurstCycles — the whole instruction issued fresh, whose
// cycles after the first copy the init-low cycle with each register
// reading the previous cycle's next state. k is 0 when there is no such
// instruction.
type unrolled struct {
	b         *symBuilder
	high, low cycleRefs
	k         int
	burst     cycleRefs
	sub       []int32 // template ref -> builder ref, for the copy being built
}

func unroll(cyc *symCircuit) *unrolled {
	r := cycleRefs{next: cyc.next}
	for i, o := range cyc.outs {
		r.outs[i] = o.ref
	}
	one := newTemplate(cyc, r)
	// Room for the two cycles and a few more before the hash set grows.
	u := &unrolled{b: newSymBuilder(&symCircuit{
		name: cyc.name, inputs: cyc.inputs, regInit: cyc.regInit,
		regSlot: cyc.regSlot, stateLen: cyc.stateLen,
	}, 8*len(one.gates))}
	regs := make([]int32, len(cyc.regInit))
	for r := range regs {
		regs[r] = cyc.regRef(r)
	}
	u.high = u.copy(one, symConst1, regs)
	u.low = u.copy(one, symConst0, regs)
	low := newTemplate(u.b.c, u.low)
	for k, r := 1, u.high; r.outs[32] == symConst0 && k < maxBurstCycles; k++ {
		r = u.copy(low, symConst0, r.next)
		if r.outs[32] == symConst1 {
			u.k, u.burst = k+1, r
		}
	}
	return u
}

// copy appends one copy of t's gates to the builder with init pinned to
// the constant ref init and the registers reading state, returning the
// copy's refs.
func (u *unrolled) copy(t *template, init int32, state []int32) cycleRefs {
	c := t.c
	base := c.gateBase()
	if n := int(base) + len(c.gates); len(u.sub) < n {
		u.sub = make([]int32, 2*n) // the builder's own circuit grows
	}
	for i := range c.inputs {
		u.sub[i] = int32(i)
	}
	u.sub[WireInit] = init // input ref WireInit is the init input
	for r, s := range state {
		u.sub[c.regRef(r)] = s
	}
	ref := func(x int32) int32 {
		if x < 0 {
			return x // constant
		}
		return u.sub[x]
	}
	for _, g := range t.gates {
		gt := c.gates[g] // a copy: c may be the builder's own circuit, which grows
		key := symGate{in: [4]int32{ref(gt.in[0]), ref(gt.in[1]), ref(gt.in[2]), ref(gt.in[3])}, tab: gt.tab}
		// t's gates are normalized already: one whose pins all stay
		// non-constant needs no folding, only hash-consing.
		folded := false
		for p, x := range gt.in {
			folded = folded || x >= 0 && key.in[p] < 0
		}
		if folded {
			u.sub[base+g] = u.b.addGate(key.in, key.tab)
		} else {
			u.sub[base+g] = u.b.intern(key)
		}
	}
	var r cycleRefs
	for i, o := range t.outs {
		r.outs[i] = ref(o)
	}
	r.next = make([]int32, len(t.next))
	for i, x := range t.next {
		r.next[i] = ref(x)
	}
	return r
}

// liveGates marks the gates of c that roots need, directly or through
// other gates.
func liveGates(c *symCircuit, roots ...[]int32) []bool {
	base := c.gateBase()
	live := make([]bool, len(c.gates))
	mark := func(ref int32) {
		if ref >= base {
			live[ref-base] = true
		}
	}
	for _, refs := range roots {
		for _, ref := range refs {
			mark(ref)
		}
	}
	for g := len(c.gates) - 1; g >= 0; g-- {
		if live[g] {
			for _, x := range c.gates[g].in {
				mark(x)
			}
		}
	}
	return live
}

// emit lowers the gates r's refs need into a schedule: the mapper's
// 4-input LUT cover of them, with the LUTs that read one leaf set paired
// two by two into one op, ordered by level; a tap per output;
// a latch per register whose next ref is not itself; a refresh per
// register some op, tap or latch reads. The registers a pass reads take
// wires wireReg0.. in register order, and op k writes the two wires
// 2k and 2k+1 past them; c.nWires grows to cover them. An op reads every
// leaf of its cut, even one its tables turn out to ignore: Verify
// requires an op's cone to stay inside its inputs.
func (c *Compiled) emit(m *mapper, r cycleRefs) schedule {
	sc, base := m.sc, m.base
	nIn := int32(len(sc.inputs))
	gates := m.cover(r)
	regWire := make([]int32, c.nRegs) // 0 when the pass does not read the register
	read := func(ref int32) {
		if ref >= nIn && ref < base {
			regWire[ref-nIn] = 1
		}
	}
	for _, g := range gates {
		best := m.best(int(g))
		for _, x := range best.leaf[:best.n] {
			read(x)
		}
	}
	for _, x := range r.outs {
		read(x)
	}
	for _, x := range r.next {
		read(x)
	}
	var s schedule
	w := int32(wireReg0)
	for reg, rd := range regWire {
		if rd != 0 {
			regWire[reg] = w
			s.refresh = append(s.refresh, regMove{slot: int32(sc.regSlot[reg]), wire: w})
			w++
		}
	}
	s.out0 = uint32(w)
	// Pair the LUTs, then order the ops by level with a counting sort, in
	// ref order within a level, and give each LUT its wire. Every input of
	// a LUT comes from an earlier level, so any order within a level is
	// legal.
	m.pair(gates)
	lead := func(g int32) bool { return m.mate[g] == 0 || m.mate[g]-1 > g }
	nLevels := int32(0)
	for _, g := range gates {
		nLevels = max(nLevels, m.level[g])
	}
	next := make([]int32, nLevels+1) // next[l] counts, then places, level l+1's ops
	n := int32(0)
	for _, g := range gates {
		if lead(g) {
			next[m.level[g]]++
			n++
		}
	}
	for l := int32(1); l <= nLevels; l++ {
		next[l] += next[l-1]
	}
	for _, g := range gates {
		if lead(g) {
			k := next[m.level[g]-1]
			next[m.level[g]-1]++
			m.pos[g] = 2*k + 1
			if h := m.mate[g]; h != 0 {
				m.pos[h-1] = 2*k + 2
			}
		}
	}
	wire := func(ref int32) int32 {
		switch {
		case ref == symConst0:
			return wireConst0
		case ref == symConst1:
			return wireConst1
		case ref >= base:
			return int32(s.out0) + m.pos[ref-base] - 1
		case ref >= nIn:
			return regWire[ref-nIn]
		}
		return ref // input ref i is input wire i
	}
	s.in = make([][4]uint32, n)
	s.tab = make([]uint32, n)
	s.wit = make([]int32, 2*n)
	for _, g := range gates {
		if !lead(g) {
			continue
		}
		o := m.pos[g] - 1 // the wire the LUT writes, past out0
		k, lut := o/2, m.best(int(g))
		for p, x := range lut.pins() {
			s.in[k][p] = uint32(wire(x))
		}
		s.tab[k], s.wit[o], s.wit[o+1] = uint32(m.tab[g]), base+g, symConst0
		if h := m.mate[g] - 1; h >= 0 {
			s.tab[k] |= uint32(permuteTable(m.tab[h], m.best(int(h)), lut)) << 16
			s.wit[o+1] = base + h
		}
	}
	for i, o := range r.outs {
		s.outTap[i] = wire(o)
	}
	for reg, x := range r.next {
		if x != sc.regRef(reg) {
			s.latch = append(s.latch, regMove{slot: int32(sc.regSlot[reg]), wire: wire(x)})
		}
	}
	c.nWires = max(c.nWires, int(s.out0)+2*int(n))
	return s
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Spec reports the array geometry the program was compiled for.
func (c *Compiled) Spec() ArraySpec { return c.spec }

// OpCount is the work of one schedule: ops, what the settle loop runs,
// and LUTs, the mapped LUTs those ops evaluate (one or two per op).
type OpCount struct {
	Ops, LUTs int
}

func (s *schedule) count() OpCount {
	n := OpCount{Ops: len(s.tab)}
	for _, w := range s.wit {
		if w != symConst0 {
			n.LUTs++
		}
	}
	return n
}

// Ops reports evaluation work, a proxy for execution cost: luts, the
// LUTs the configuration evaluates per cycle (what a direct lowering, or
// the interpretive PFU, runs); byInit[v], the work of the schedule Step
// runs when init is v (0 low, 1 high); and burst, the work of the whole-
// instruction burst (zero when BurstCycles is 0).
func (c *Compiled) Ops() (luts int, byInit [2]OpCount, burst OpCount) {
	for v := range c.sched {
		byInit[v] = c.sched[v].count()
	}
	return c.luts, byInit, c.burst.count()
}

// BurstCycles reports K, the length of the instruction Run issues fresh
// as one burst, or 0 when the program has no burst (done depends on the
// data or the state, or the instruction is one cycle or longer than the
// cap).
func (c *Compiled) BurstCycles() int { return c.burstK }

// Instance is one executable copy of a Compiled program: the shared
// read-only program plus this copy's register state and wire scratch.
// Stamping an instance is two small allocations — the compile-once,
// instantiate-many half of the split configuration story.
type Instance struct {
	prog  *Compiled
	wires []uint8 // one byte per wire, 0/1
	ffQ   []uint8 // register values, one byte per CLB (the state frame contents)

	// cut is how many cycles of a fresh issue Run has charged without
	// clocking them (0 when none): the instruction was cut short of its
	// burst, and ffQ still holds the registers it was issued on, with
	// operands cutA and cutB. See Run.
	cut        int
	cutA, cutB uint32
}

// NewInstance stamps a fresh instance in its power-on state. Instances
// share the program but nothing else; each may be stepped independently.
func (c *Compiled) NewInstance() *Instance {
	in := &Instance{
		prog:  c,
		wires: make([]uint8, c.nWires),
		ffQ:   make([]uint8, c.spec.CLBs()),
	}
	in.wires[wireConst1] = 1
	copy(in.ffQ, c.ffInit)
	return in
}

// Reset restores every register to its configured initial value,
// dropping any cut instruction.
func (in *Instance) Reset() {
	in.cut = 0
	copy(in.ffQ, in.prog.ffInit)
}

// Step advances the circuit by one clock cycle, exactly like PFU.Step:
// combinational logic settles, outputs are sampled, then every used
// flip-flop latches. It runs the schedule specialised for init, after
// settling a cut instruction.
func (in *Instance) Step(a, b uint32, init bool) (out uint32, done bool) {
	in.settleCut()
	return in.step(a, b, init)
}

func (in *Instance) step(a, b uint32, init bool) (out uint32, done bool) {
	s := &in.prog.sched[0]
	if init {
		s = &in.prog.sched[1]
	}
	return in.run(s, a, b)
}

// Run issues an instruction (init high) or reissues one (init low) with
// the operands held for at most max cycles — at least one — stopping at
// the cycle that raises done. It returns the cycles run and done, and
// the result when done (0 otherwise), and leaves the registers as
// stepping with init on the first cycle and low after would.
//
// A circuit with a K-cycle burst runs a fresh issue with max ≥ K as that
// burst. One with max < K — an instruction a timer edge cuts short — is
// only charged: Run records the cut and leaves the registers as issued.
// A reissue with init low and the same operands then either finishes the
// instruction as the burst, returning the K − cut cycles left, or is cut
// again. This is exact because done is constant on every cycle of the
// burst: the cycles after the cut, run with the operands held and init
// low, are the burst's own, so cut cycles followed by the rest are the
// burst. Step, or a Run with init high or different operands, first
// settles the cut, stepping its cycles from the registers it was issued
// on; Reset drops it. Everything else steps per cycle.
func (in *Instance) Run(a, b uint32, init bool, max int) (out uint32, cycles int, done bool) {
	if max < 1 {
		max = 1
	}
	if in.cut > 0 && (init || a != in.cutA || b != in.cutB) {
		in.settleCut()
	}
	if k := in.prog.burstK; k > 0 && (init || in.cut > 0) {
		if left := k - in.cut; max >= left {
			in.cut = 0
			out, _ = in.run(&in.prog.burst, a, b)
			return out, left, true
		}
		in.cut, in.cutA, in.cutB = in.cut+max, a, b
		return 0, max, false
	}
	for n := 1; ; n++ {
		if out, done = in.step(a, b, init); done {
			return out, n, true
		}
		if n >= max {
			return 0, n, false
		}
		init = false
	}
}

// settleCut clocks a cut instruction's cycles one by one from the registers
// it was issued on, so the registers hold what those cycles left.
func (in *Instance) settleCut() {
	if in.cut == 0 {
		return
	}
	n := in.cut
	in.cut = 0
	in.step(in.cutA, in.cutB, true)
	for i := 1; i < n; i++ {
		in.step(in.cutA, in.cutB, false)
	}
}

// run executes one schedule: spread the operands, refresh the registers
// it reads, settle, sample the taps, latch.
func (in *Instance) run(s *schedule, a, b uint32) (out uint32, done bool) {
	w := in.wires
	// Spread the operand bits across wire bytes 0..63 (wires 0..31 are a,
	// 32..63 are b), eight bits per store via the SWAR byte-spread.
	binary.LittleEndian.PutUint64(w[WireA0:], spreadBits(uint8(a)))
	binary.LittleEndian.PutUint64(w[WireA0+8:], spreadBits(uint8(a>>8)))
	binary.LittleEndian.PutUint64(w[WireA0+16:], spreadBits(uint8(a>>16)))
	binary.LittleEndian.PutUint64(w[WireA0+24:], spreadBits(uint8(a>>24)))
	binary.LittleEndian.PutUint64(w[WireB0:], spreadBits(uint8(b)))
	binary.LittleEndian.PutUint64(w[WireB0+8:], spreadBits(uint8(b>>8)))
	binary.LittleEndian.PutUint64(w[WireB0+16:], spreadBits(uint8(b>>16)))
	binary.LittleEndian.PutUint64(w[WireB0+24:], spreadBits(uint8(b>>24)))
	ffQ := in.ffQ
	for _, m := range s.refresh {
		w[int(m.wire)&(len(w)-1)] = ffQ[m.slot]
	}
	// Settle combinational logic: branch-free table lookups over the
	// precomputed input indices, in levelized order, each op's index
	// computed once for both its LUTs. Unused pins read the constant-0
	// wire. len(w) is a power of two and every wire index is below it, so
	// masking with len(w)-1 is the identity — the idiom exists solely to
	// let the compiler prove the accesses in range and drop the bounds
	// checks.
	dst := int(s.out0)
	tab := s.tab[:len(s.in)]
	for k := range s.in {
		x := &s.in[k]
		idx := uint32(w[int(x[0])&(len(w)-1)]) |
			uint32(w[int(x[1])&(len(w)-1)])<<1 |
			uint32(w[int(x[2])&(len(w)-1)])<<2 |
			uint32(w[int(x[3])&(len(w)-1)])<<3
		t := tab[k] >> idx
		w[(dst+2*k)&(len(w)-1)] = uint8(t) & 1
		w[(dst+2*k+1)&(len(w)-1)] = uint8(t>>16) & 1
	}
	// Sample outputs before the clock edge.
	for i := 0; i < 32; i++ {
		out |= uint32(w[int(s.outTap[i])&(len(w)-1)]) << i
	}
	done = w[int(s.outTap[32])&(len(w)-1)] != 0
	// Clock edge: the latches read wires and write the frame, so their
	// order does not matter.
	for _, m := range s.latch {
		ffQ[m.slot] = w[int(m.wire)&(len(w)-1)]
	}
	return out, done
}

// spreadBits expands the eight bits of v into eight 0/1 bytes, bit i in
// byte i. x replicates v into every byte; the mask keeps bit k in byte k
// (0 or 1<<k); the borrow trick normalises each byte to 0/1: 0x80-x has
// bit 7 set iff the byte was zero (no inter-byte borrows, since every
// byte is at most 0x80).
func spreadBits(v uint8) uint64 {
	x := uint64(v) * 0x0101010101010101 & 0x8040201008040201
	return ^(0x8080808080808080 - x) & 0x8080808080808080 >> 7
}
