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
// Compilation happens once per distinct configuration; Instances stamped
// from the program carry only register state plus the wire scratch, so
// loading a circuit into a PFU slot is an allocation, not a decode.
// The interpretive PFU remains the reference model the compiled engine is
// differentially tested against.
type Compiled struct {
	spec   ArraySpec
	nWires int // wire scratch size, including the constant-0 wire

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

	// ffDrive lists CLBs whose output wire is driven from the register
	// (sequential sources); their wires are refreshed before the
	// combinational pass.
	ffDrive []int32

	// Clock-edge ops. pinFF are route-through flip-flops latching a wire;
	// lutFF latch the value staged by their CLB's LUT.
	pinFF  []edgeOp // route-through FF latches
	lutFFQ []int32  // CLB/register index per LUT-fed FF

	outTap [33]int32 // resolved output wire per out bit (32 = done)

	ffInit []uint8 // power-on register values, one byte per CLB
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
		// +1: the constant-0 wire. Rounded up to a power of two so the
		// settle loop can mask indices instead of bounds-checking them.
		nWires: ceilPow2(spec.NumWires() + 1),
	}
	c.ffInit = make([]uint8, n)
	// constW is the always-zero wire every unconnected select resolves to.
	constW := int32(spec.NumWires())
	wireOf := func(sel uint16) int32 {
		if sel == 0 {
			return constW
		}
		return int32(sel) - 1
	}
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
				c.pinFF = append(c.pinFF, edgeOp{d: wireOf(cc.InSel[0]), q: int32(i)})
			} else if cc.Flags&FlagLUTUsed != 0 {
				c.lutFFQ = append(c.lutFFQ, int32(i))
			}
		}
	}
	for _, i := range lv.order {
		cc := &cfg.CLBs[i]
		switch {
		case cc.Flags&FlagOutFF == 0:
			op := lutOp{out: int32(WireCLB0 + i), tab: cc.Table}
			for pin := 0; pin < 4; pin++ {
				op.in[pin] = wireOf(cc.InSel[pin])
			}
			c.combOps = append(c.combOps, op)
			// (regrouped by level and arity below)
		case cc.Flags&FlagFFFromPin == 0:
			op := lutOp{out: int32(i), tab: cc.Table}
			for pin := 0; pin < 4; pin++ {
				op.in[pin] = wireOf(cc.InSel[pin])
			}
			c.stageOps = append(c.stageOps, op)
			// default: the LUT output reaches neither the wire (FF-driven)
			// nor the FF (pin-fed) — a dead op the interpreter evaluates
			// and discards; dropped here.
		}
	}
	for i, sel := range cfg.OutSel {
		c.outTap[i] = wireOf(sel)
	}
	c.scheduleComb(constW)
	return c, nil
}

// scheduleComb regroups the levelized combinational ops by dependency
// level and, within each level, by input arity, emitting the segment list
// the settle loop's specialised inner loops run over. Any within-level
// permutation is legal: an op's inputs all come from strictly earlier
// levels (or sequential/input wires, which are ready before the settle).
func (c *Compiled) scheduleComb(constW int32) {
	if len(c.combOps) == 0 {
		return
	}
	wireLevel := make(map[int32]int, len(c.combOps))
	type levOp struct {
		op    lutOp
		arity int
	}
	levels := make([][5][]levOp, 0, 8) // level -> arity -> ops
	for _, op := range c.combOps {
		lv := 0
		arity := 1 // a zero-input (constant) LUT still costs one load
		for j, in := range op.in {
			if l, ok := wireLevel[in]; ok && l+1 > lv {
				lv = l + 1
			}
			if in != constW {
				arity = j + 1
			}
		}
		wireLevel[op.out] = lv
		for len(levels) <= lv {
			levels = append(levels, [5][]levOp{})
		}
		levels[lv][arity] = append(levels[lv][arity], levOp{op: op, arity: arity})
	}
	ops := make([]lutOp, 0, len(c.combOps))
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
	c.combOps = ops
	c.combSegs = segs
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

// Ops reports the number of per-cycle evaluation ops (combinational plus
// staged), a proxy for Step cost.
func (c *Compiled) Ops() int { return len(c.combOps) + len(c.stageOps) }

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
// flip-flop latches.
func (in *Instance) Step(a, b uint32, init bool) (out uint32, done bool) {
	p := in.prog
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
	var ib uint8
	if init {
		ib = 1
	}
	w[WireInit] = ib
	ffQ := in.ffQ
	for _, i := range p.ffDrive {
		w[int32(WireCLB0)+i] = ffQ[i]
	}
	// Settle combinational logic: branch-free table lookups over the
	// precomputed input indices, in levelized order. len(w) is a power of
	// two and every wire index is below it, so masking with len(w)-1 is
	// the identity — the idiom exists solely to let the compiler prove
	// the accesses in range and drop the bounds checks.
	ops := p.combOps
	base := 0
	for _, seg := range p.combSegs {
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
	sops := p.stageOps
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
		out |= uint32(w[p.outTap[i]]) << i
	}
	done = w[p.outTap[32]] != 0
	// Clock edge.
	pins := p.pinFF
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
// canonical one-byte-per-CLB frame (the ffQ layout itself), with
// deprecated []bool shims for the pre-frame signatures.
