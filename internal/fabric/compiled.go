package fabric

import "encoding/binary"

// Compiled is a circuit program: a validated, levelized ArrayConfig
// lowered once into flat structure-of-arrays form that a tight,
// branch-free Step can execute. Where the interpretive PFU re-walks the
// CLB array each cycle — re-deriving input selects, flag dispatch and
// output taps from the configuration words — a Compiled program resolves
// all of that at compile time:
//
//   - every LUT's four input wire indices are precomputed (unconnected
//     pins point at a dedicated constant-0 wire, so the hot loop never
//     branches on "is this pin routed");
//   - LUT truth tables are packed into a flat slice in evaluation order;
//   - combinational evaluation, flip-flop staging and the clock edge are
//     separated into independent op lists;
//   - the 33 output taps are resolved to wire indices up front;
//   - register state is kept in packed words, with a flat one-byte-per-
//     wire scratch for the combinational settle (byte stores keep the
//     settle loop free of the read-modify-write dependency chains that
//     word-packed wire writes would serialise on).
//
// The op lists come in two schedules, one per value of the init input.
// The §4.4 protocol holds init high on the first cycle of an instruction
// and low on the rest, so Compile specialises the lowering twice with the
// init wire folded to a constant: LUTs reading a known-constant wire are
// cofactored, LUTs left constant become reads of the constant-0 or
// constant-1 wire, single-input identities become reads of their source,
// and ops that nothing live reads are dropped. Step runs the schedule
// for the init value it is given; each schedule writes every wire it
// reads, so neither depends on what the other left in the scratch.
//
// Compilation happens once per distinct configuration; Instances stamped
// from the program carry only register state plus the wire scratch, so
// loading a circuit into a PFU slot is an allocation, not a decode.
// The interpretive PFU remains the reference model the compiled engine is
// differentially tested against.
type Compiled struct {
	spec   ArraySpec
	nWires int // wire scratch size, including the two constant wires

	// sched[0] runs when init is low, sched[1] when it is high.
	sched [2]schedule
	ops   int // per-cycle ops before specialisation, for Ops

	// ffDrive lists CLBs whose output wire is driven from the register
	// (sequential sources); their wires are refreshed before the
	// combinational pass.
	ffDrive []int32

	// lutFFQ lists the CLB/register index of every LUT-fed flip-flop;
	// at the clock edge each latches the value its staging op left.
	lutFFQ []int32

	ffInit []uint8 // power-on register values, one byte per CLB
}

// schedule is the per-cycle work for one value of init.
type schedule struct {
	// Combinational ops — LUTs that drive their CLB output wire —
	// grouped by dependency level and, within a level, by input arity:
	// every input is computed before its consumer, and combSegs lets the
	// settle loop run an arity-specialised inner loop per run of same-
	// arity ops (a 2-input LUT costs two wire loads, not four).
	combOps  []lutOp
	combSegs []opSeg

	// Staging ops: LUTs feeding their own flip-flop internally. They
	// write no wires, so they run after the combinational pass, staging
	// the D value for the clock edge (out indexes the register scratch,
	// not the wires).
	stageOps []lutOp

	// pinFF are route-through flip-flops latching a wire at the edge.
	pinFF []edgeOp

	outTap [33]int32 // resolved output wire per out bit (32 = done)
}

// lutOp is one lowered LUT evaluation: four precomputed input wire
// indices, the packed truth table, and the destination index. A fixed
// 24-byte op keeps the settle loop sequential in memory and free of
// per-field bounds checks.
type lutOp struct {
	in  [4]int32
	out int32
	tab uint16
}

// edgeOp is one route-through flip-flop latch: register q samples wire d
// at the clock edge.
type edgeOp struct {
	d, q int32
}

// opSeg is a run of n consecutive combOps sharing one input arity.
type opSeg struct {
	n     int32
	arity int8
}

// Compile validates and levelizes a configuration — rejecting the same
// combinational loops NewPFU rejects, so it doubles as the §2 functional
// security check — and lowers it into a Compiled program.
func Compile(cfg *ArrayConfig) (*Compiled, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lv, err := levelizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	spec := cfg.Spec
	n := spec.CLBs()
	c := &Compiled{
		spec: spec,
		// +2: the constant-0 and constant-1 wires. Rounded up to a power
		// of two so the settle loop can mask indices instead of
		// bounds-checking them.
		nWires: ceilPow2(spec.NumWires() + 2),
	}
	c.ffInit = make([]uint8, n)
	// const0 is the always-zero wire every unconnected select resolves
	// to; const0+1 is the always-one wire.
	const0 := int32(spec.NumWires())
	wireOf := func(sel uint16) int32 {
		if sel == 0 {
			return const0
		}
		return int32(sel) - 1
	}
	lutOf := func(cc *CLBConfig, out int32) lutOp {
		op := lutOp{out: out, tab: cc.Table}
		for pin := 0; pin < 4; pin++ {
			op.in[pin] = wireOf(cc.InSel[pin])
		}
		return op
	}
	// base is the unspecialised lowering, in levelized order; Compile
	// keeps only its two specialisations.
	var base schedule
	for i := range cfg.CLBs {
		cc := &cfg.CLBs[i]
		if cc.Flags&FlagOutFF != 0 {
			c.ffDrive = append(c.ffDrive, int32(i))
		}
		if cc.Flags&FlagFFInit != 0 {
			c.ffInit[i] = 1
		}
		if cc.Flags&FlagFFUsed != 0 {
			if cc.Flags&FlagFFFromPin != 0 {
				base.pinFF = append(base.pinFF, edgeOp{d: wireOf(cc.InSel[0]), q: int32(i)})
			} else if cc.Flags&FlagLUTUsed != 0 {
				c.lutFFQ = append(c.lutFFQ, int32(i))
			}
		}
	}
	for _, i := range lv.order {
		cc := &cfg.CLBs[i]
		switch {
		case cc.Flags&FlagOutFF == 0:
			base.combOps = append(base.combOps, lutOf(cc, int32(WireCLB0+i)))
		case cc.Flags&FlagFFFromPin == 0:
			base.stageOps = append(base.stageOps, lutOf(cc, int32(i)))
			// default: the LUT output reaches neither the wire (FF-driven)
			// nor the FF (pin-fed) — a dead op the interpreter evaluates
			// and discards; dropped here.
		}
	}
	for i, sel := range cfg.OutSel {
		base.outTap[i] = wireOf(sel)
	}
	c.ops = len(base.combOps) + len(base.stageOps)
	for init := range c.sched {
		c.sched[init] = base.specialise(const0, init)
	}
	return c, nil
}

// specialise returns the schedule Step runs when the init wire holds v.
// It walks s (an unspecialised lowering, combOps in levelized order)
// with init folded to the constant v: every LUT reading a known-constant
// wire is cofactored by foldLUT; a combinational LUT left constant, or
// left a single-input identity, emits no op, and its readers read the
// constant wire (const0 or const0+1) or its source instead. Then only
// the combinational ops that an output tap, a staging op or a pin-fed
// flip-flop reads, directly or through other ops, are kept and
// regrouped by scheduleComb. Staging ops all stay: their flip-flops are
// state frame contents whether or not an output observes them.
func (s *schedule) specialise(const0 int32, v int) schedule {
	const1 := const0 + 1
	// ref[w] is the wire a reader of wire w reads instead of w.
	ref := make([]int32, const1+1)
	for w := range ref {
		ref[w] = int32(w)
	}
	ref[WireInit] = const0 + int32(v)
	known := func(w int32) (bool, bool) { return w == const1, w == const0 || w == const1 }
	fold := func(op lutOp) (lutOp, int) {
		for p, w := range op.in {
			op.in[p] = ref[w]
		}
		var k int
		op.tab, op.in, k = foldLUT(op.tab, op.in, const0, known)
		return op, k
	}
	var sp schedule
	var comb []lutOp
	for _, op := range s.combOps {
		op, k := fold(op)
		switch {
		case k == 0:
			ref[op.out] = const0 + int32(op.tab&1)
		case k == 1 && op.tab == 0xAAAA:
			ref[op.out] = op.in[0]
		default:
			comb = append(comb, op)
		}
	}
	for _, op := range s.stageOps {
		op, _ = fold(op)
		sp.stageOps = append(sp.stageOps, op)
	}
	for _, e := range s.pinFF {
		sp.pinFF = append(sp.pinFF, edgeOp{d: ref[e.d], q: e.q})
	}
	for i, w := range s.outTap {
		sp.outTap[i] = ref[w]
	}
	// Liveness: the backward closure of every wire the taps, staging ops
	// and pin-fed flip-flops read, through the ops that write them.
	writer := make([]int32, len(ref)) // 1 + index of the op writing a wire
	for i, op := range comb {
		writer[op.out] = int32(i) + 1
	}
	seeds := append([]int32(nil), sp.outTap[:]...)
	for _, op := range sp.stageOps {
		seeds = append(seeds, op.in[:]...)
	}
	for _, e := range sp.pinFF {
		seeds = append(seeds, e.d)
	}
	live := make([]bool, len(ref))
	closure(seeds, live, func(w int32, push func(int32)) {
		if i := writer[w]; i > 0 {
			for _, x := range comb[i-1].in {
				push(x)
			}
		}
	})
	kept := comb[:0]
	for _, op := range comb {
		if live[op.out] {
			kept = append(kept, op)
		}
	}
	sp.combOps, sp.combSegs = scheduleComb(kept, const0)
	return sp
}

// scheduleComb regroups levelized combinational ops by dependency level
// and, within each level, by input arity, returning them with the
// segment list the settle loop's specialised inner loops run over. Any
// within-level permutation is legal: an op's inputs all come from
// strictly earlier levels (or sequential/input wires, which are ready
// before the settle).
func scheduleComb(combOps []lutOp, const0 int32) ([]lutOp, []opSeg) {
	if len(combOps) == 0 {
		return nil, nil
	}
	wireLevel := make(map[int32]int, len(combOps))
	type levOp struct {
		op    lutOp
		arity int
	}
	levels := make([][5][]levOp, 0, 8) // level -> arity -> ops
	for _, op := range combOps {
		lv := 0
		arity := 1 // a zero-input (constant) LUT still costs one load
		for j, in := range op.in {
			if l, ok := wireLevel[in]; ok && l+1 > lv {
				lv = l + 1
			}
			if in != const0 {
				arity = j + 1
			}
		}
		wireLevel[op.out] = lv
		for len(levels) <= lv {
			levels = append(levels, [5][]levOp{})
		}
		levels[lv][arity] = append(levels[lv][arity], levOp{op: op, arity: arity})
	}
	ops := make([]lutOp, 0, len(combOps))
	var segs []opSeg
	for _, byArity := range levels {
		for a := 1; a <= 4; a++ {
			for _, lo := range byArity[a] {
				ops = append(ops, lo.op)
			}
			if n := len(byArity[a]); n > 0 {
				if len(segs) > 0 && segs[len(segs)-1].arity == int8(a) {
					segs[len(segs)-1].n += int32(n)
				} else {
					segs = append(segs, opSeg{n: int32(n), arity: int8(a)})
				}
			}
		}
	}
	return ops, segs
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

// Ops reports the per-cycle evaluation ops (combinational plus staging),
// a proxy for Step cost: base before init specialisation, and byInit[v]
// in the schedule Step runs when init is v (0 low, 1 high).
func (c *Compiled) Ops() (base int, byInit [2]int) {
	for v := range c.sched {
		byInit[v] = len(c.sched[v].combOps) + len(c.sched[v].stageOps)
	}
	return c.ops, byInit
}

// Instance is one executable copy of a Compiled program: the shared
// read-only program plus this copy's register state and wire scratch.
// Stamping an instance is a few small allocations — the compile-once,
// instantiate-many half of the split configuration story.
type Instance struct {
	prog  *Compiled
	wires []uint8 // one byte per wire, 0/1
	ffNxt []uint8 // staged D values, one byte per CLB
	ffQ   []uint8 // register values, one byte per CLB (the state frame contents)
}

// NewInstance stamps a fresh instance in its power-on state. Instances
// share the program but nothing else; each may be stepped independently.
func (c *Compiled) NewInstance() *Instance {
	in := &Instance{
		prog:  c,
		wires: make([]uint8, c.nWires),
		ffNxt: make([]uint8, c.spec.CLBs()),
		ffQ:   make([]uint8, c.spec.CLBs()),
	}
	in.wires[c.spec.NumWires()+1] = 1 // the constant-1 wire
	copy(in.ffQ, c.ffInit)
	return in
}

// Program returns the shared compiled program.
func (in *Instance) Program() *Compiled { return in.prog }

// Spec reports the array geometry.
func (in *Instance) Spec() ArraySpec { return in.prog.spec }

// Reset restores every register to its configured initial value.
func (in *Instance) Reset() {
	copy(in.ffQ, in.prog.ffInit)
}

// Step advances the circuit by one clock cycle, exactly like PFU.Step:
// combinational logic settles, outputs are sampled, then every used
// flip-flop latches. It runs the schedule specialised for init, so the
// init wire itself is never read.
func (in *Instance) Step(a, b uint32, init bool) (out uint32, done bool) {
	p := in.prog
	s := &p.sched[0]
	if init {
		s = &p.sched[1]
	}
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
	for _, i := range p.ffDrive {
		w[int32(WireCLB0)+i] = ffQ[i]
	}
	// Settle combinational logic: branch-free table lookups over the
	// precomputed input indices, in levelized order. len(w) is a power of
	// two and every wire index is below it, so masking with len(w)-1 is
	// the identity — the idiom exists solely to let the compiler prove
	// the accesses in range and drop the bounds checks.
	ops := s.combOps
	base := 0
	for _, seg := range s.combSegs {
		end := base + int(seg.n)
		switch seg.arity {
		case 1:
			for k := base; k < end; k++ {
				op := &ops[k]
				idx := uint32(w[int(op.in[0])&(len(w)-1)])
				w[int(op.out)&(len(w)-1)] = uint8(op.tab>>idx) & 1
			}
		case 2:
			for k := base; k < end; k++ {
				op := &ops[k]
				idx := uint32(w[int(op.in[0])&(len(w)-1)]) |
					uint32(w[int(op.in[1])&(len(w)-1)])<<1
				w[int(op.out)&(len(w)-1)] = uint8(op.tab>>idx) & 1
			}
		case 3:
			for k := base; k < end; k++ {
				op := &ops[k]
				idx := uint32(w[int(op.in[0])&(len(w)-1)]) |
					uint32(w[int(op.in[1])&(len(w)-1)])<<1 |
					uint32(w[int(op.in[2])&(len(w)-1)])<<2
				w[int(op.out)&(len(w)-1)] = uint8(op.tab>>idx) & 1
			}
		default:
			for k := base; k < end; k++ {
				op := &ops[k]
				idx := uint32(w[int(op.in[0])&(len(w)-1)]) |
					uint32(w[int(op.in[1])&(len(w)-1)])<<1 |
					uint32(w[int(op.in[2])&(len(w)-1)])<<2 |
					uint32(w[int(op.in[3])&(len(w)-1)])<<3
				w[int(op.out)&(len(w)-1)] = uint8(op.tab>>idx) & 1
			}
		}
		base = end
	}
	ffNxt := in.ffNxt
	sops := s.stageOps
	for k := range sops {
		op := &sops[k]
		idx := uint32(w[int(op.in[0])&(len(w)-1)]) |
			uint32(w[int(op.in[1])&(len(w)-1)])<<1 |
			uint32(w[int(op.in[2])&(len(w)-1)])<<2 |
			uint32(w[int(op.in[3])&(len(w)-1)])<<3
		ffNxt[op.out] = uint8(op.tab>>idx) & 1
	}
	// Sample outputs before the clock edge.
	for i := 0; i < 32; i++ {
		out |= uint32(w[s.outTap[i]]) << i
	}
	done = w[s.outTap[32]] != 0
	// Clock edge.
	pins := s.pinFF
	for k := range pins {
		ffQ[pins[k].q] = w[pins[k].d]
	}
	for _, q := range p.lutFFQ {
		ffQ[q] = ffNxt[q]
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

// State capture lives in frame.go: SaveFrame/LoadFrame exchange the
// canonical one-byte-per-CLB frame (the ffQ layout itself).
