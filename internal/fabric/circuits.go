package fabric

// Stock circuit library. These netlists exercise every fabric feature the
// Proteus architecture depends on — combinational instructions, multi-cycle
// sequential instructions with the init/done protocol of §4.4, and CLB
// register state that must survive swap-out — and serve as the gate-level
// ground truth for the behavioural circuit models used by the workloads.
//
// Every circuit has a Ref* companion implementing the identical arithmetic
// in Go; the tests check gate-level against reference exhaustively or
// property-based.

// Passthrough32 returns a circuit whose output copies operand a
// combinationally; done is constant 1 (single-cycle instruction).
func Passthrough32() *Netlist {
	b := NewBuilder("pass32")
	a := b.Input("a", 32)
	b.Input("b", 32)
	b.Input("init", 1)
	out := make([]Net, 32)
	for i := range out {
		out[i] = b.Buf(a[i])
	}
	b.Output("out", out)
	b.Output("done", []Net{b.Const(true)})
	return b.MustBuild()
}

// Xor32 returns out = a XOR b, single cycle.
func Xor32() *Netlist {
	bd := NewBuilder("xor32")
	a := bd.Input("a", 32)
	b := bd.Input("b", 32)
	bd.Input("init", 1)
	bd.Output("out", bd.XorW(a, b))
	bd.Output("done", []Net{bd.Const(true)})
	return bd.MustBuild()
}

// Adder32 returns out = a + b (mod 2^32), single cycle.
func Adder32() *Netlist {
	bd := NewBuilder("add32")
	a := bd.Input("a", 32)
	b := bd.Input("b", 32)
	bd.Input("init", 1)
	sum, _ := bd.Add(a, b, bd.Const(false))
	bd.Output("out", sum)
	bd.Output("done", []Net{bd.Const(true)})
	return bd.MustBuild()
}

// Popcount32 returns out = number of set bits in a, single cycle.
func Popcount32() *Netlist {
	bd := NewBuilder("popcount32")
	a := bd.Input("a", 32)
	bd.Input("b", 32)
	bd.Input("init", 1)
	// Full-adder compression: reduce 32 1-bit values to a 6-bit count by
	// repeatedly combining three equal-weight bits into sum+carry.
	weights := make([][]Net, 7)
	weights[0] = append([]Net(nil), a...)
	for w := 0; w < 6; w++ {
		for len(weights[w]) >= 3 {
			x, y, z := weights[w][0], weights[w][1], weights[w][2]
			weights[w] = weights[w][3:]
			weights[w] = append(weights[w], bd.Xor3(x, y, z))
			weights[w+1] = append(weights[w+1], bd.Maj(x, y, z))
		}
		if len(weights[w]) == 2 {
			x, y := weights[w][0], weights[w][1]
			weights[w] = []Net{bd.Xor(x, y)}
			weights[w+1] = append(weights[w+1], bd.And(x, y))
		}
	}
	out := make([]Net, 32)
	for i := range out {
		if i < len(weights) && len(weights[i]) == 1 {
			out[i] = weights[i][0]
		} else {
			out[i] = bd.Const(false)
		}
	}
	bd.Output("out", out)
	bd.Output("done", []Net{bd.Const(true)})
	return bd.MustBuild()
}

// CRC32Poly is the reflected IEEE CRC-32 polynomial.
const CRC32Poly = 0xEDB88320

// CRC32Step returns a single-cycle circuit computing one byte step of the
// reflected CRC-32: a is the running CRC, the low byte of b is the data
// byte.
func CRC32Step() *Netlist {
	bd := NewBuilder("crc32step")
	a := bd.Input("a", 32)
	b := bd.Input("b", 32)
	bd.Input("init", 1)
	x := make([]Net, 32)
	for i := 0; i < 32; i++ {
		if i < 8 {
			x[i] = bd.Xor(a[i], b[i])
		} else {
			x[i] = a[i]
		}
	}
	for round := 0; round < 8; round++ {
		lsb := x[0]
		nx := make([]Net, 32)
		for i := 0; i < 32; i++ {
			var hi Net
			if i < 31 {
				hi = x[i+1]
			} else {
				hi = bd.Const(false)
			}
			if CRC32Poly>>i&1 != 0 {
				if i < 31 {
					nx[i] = bd.Xor(hi, lsb)
				} else {
					nx[i] = bd.Buf(lsb)
				}
			} else {
				nx[i] = hi
			}
		}
		x = nx
	}
	bd.Output("out", x)
	bd.Output("done", []Net{bd.Const(true)})
	return bd.MustBuild()
}

// SatAdd16 returns a single-cycle circuit computing the signed saturating
// sum of the low halfwords of a and b, sign-extended to 32 bits. This is
// the audio echo application's mixing instruction.
func SatAdd16() *Netlist {
	bd := NewBuilder("satadd16")
	a := bd.Input("a", 32)
	b := bd.Input("b", 32)
	bd.Input("init", 1)
	sum, _ := bd.Add(a[:16], b[:16], bd.Const(false))
	sa, sb, ss := a[15], b[15], sum[15]
	// Overflow when operands share a sign the sum lacks.
	ovf := bd.And(bd.Xnor(sa, sb), bd.Xor(sa, ss))
	// Saturated value: 0x7FFF for positive overflow, 0x8000 for negative.
	neg := sa
	out := make([]Net, 32)
	for i := 0; i < 15; i++ {
		// ovf ? !neg : sum[i]
		out[i] = bd.Mux(ovf, sum[i], bd.Not(neg))
	}
	out[15] = bd.Mux(ovf, sum[15], bd.Buf(neg))
	for i := 16; i < 32; i++ {
		out[i] = out[15] // sign extension
	}
	bd.Output("out", out)
	bd.Output("done", []Net{bd.Const(true)})
	return bd.MustBuild()
}

// SeqMul16 returns a 16-cycle sequential shift-add multiplier computing the
// 32-bit product of the low halfwords of a and b. It is the canonical
// long-running instruction of §4.4: it holds state across cycles, honours
// init, raises done on its final cycle, and resumes transparently after an
// interrupt because its progress lives entirely in CLB registers.
func SeqMul16() *Netlist {
	bd := NewBuilder("seqmul16")
	a := bd.Input("a", 32)
	b := bd.Input("b", 32)
	init := bd.Input("init", 1)[0]

	zero32 := bd.WordConst(0, 32)
	aLow := bd.Extend(a[:16], 32)

	// State registers need their Q nets before the next-state logic that
	// feeds them exists; Reg allocates the flip-flops up front and patches
	// their D inputs once the recurrence is built.
	newReg := bd.regMaker()
	aregQ, setA := newReg(32)  // shifted multiplicand
	bregQ, setB := newReg(16)  // remaining multiplier bits
	accQ, setAcc := newReg(32) // accumulator
	cntQ, setCnt := newReg(4)  // iteration counter

	curA := bd.MuxW(init, aregQ, aLow)
	curB := bd.MuxW(init, bregQ, b[:16])
	curAcc := bd.MuxW(init, accQ, zero32)

	term := make([]Net, 32)
	for i := range term {
		term[i] = bd.And(curB[0], curA[i])
	}
	accNext, _ := bd.Add(curAcc, term, bd.Const(false))

	setA(bd.ShiftLeftConst(curA, 1))
	setB(bd.ShiftRightConst(curB, 1))
	setAcc(accNext)

	one4 := bd.WordConst(1, 4)
	cntPlus, _ := bd.Add(cntQ, one4, bd.Const(false))
	zero4 := bd.WordConst(0, 4)
	cntInit, _ := bd.Add(zero4, one4, bd.Const(false))
	setCnt(bd.MuxW(init, cntPlus, cntInit))

	// done on the 16th iteration: counter shows 15 completed and we are not
	// in the init cycle.
	is15 := bd.Equal(cntQ, bd.WordConst(15, 4))
	done := bd.AndNot(is15, init)

	bd.Output("out", accNext)
	bd.Output("done", []Net{done})
	return bd.MustBuild()
}

// SeqMul16Cycles is the instruction latency of SeqMul16.
const SeqMul16Cycles = 16

// AlphaBlend returns the image-compositing instruction of the alpha
// blending test application: an 8-cycle sequential circuit blending the
// three colour channels of packed ARGB pixels a (source, with alpha in bits
// 31:24) and b (destination):
//
//	out_c = dst_c + (((src_c - dst_c) * alpha + 128) >> 8)
//
// with the source alpha passed through. The multiply is serialised over the
// eight alpha bits, one per cycle.
func AlphaBlend() *Netlist {
	bd := NewBuilder("alphablend")
	a := bd.Input("a", 32)
	b := bd.Input("b", 32)
	init := bd.Input("init", 1)[0]

	alpha := a[24:32]
	newReg := bd.regMaker()

	// Shared alpha shift register.
	aQ, setAQ := newReg(8)
	curAlpha := bd.MuxW(init, aQ, alpha)
	setAQ(bd.ShiftRightConst(curAlpha, 1))

	// Counter.
	cntQ, setCnt := newReg(3)
	one3 := bd.WordConst(1, 3)
	cntPlus, _ := bd.Add(cntQ, one3, bd.Const(false))
	setCnt(bd.MuxW(init, cntPlus, one3))
	is7 := bd.Equal(cntQ, bd.WordConst(7, 3))
	done := bd.AndNot(is7, init)

	out := make([]Net, 32)
	for lane := 0; lane < 3; lane++ {
		src := a[lane*8 : lane*8+8]
		dst := b[lane*8 : lane*8+8]
		// d = src - dst, 9-bit signed, then sign-extended to 18 bits.
		diff, carry := bd.Sub(src, dst)
		sign := bd.Not(carry) // borrow => negative
		d18 := make([]Net, 18)
		copy(d18, diff)
		d18[8] = sign
		for i := 9; i < 18; i++ {
			d18[i] = sign
		}
		// Shift register holding d << i.
		dQ, setD := newReg(18)
		curD := bd.MuxW(init, dQ, d18)
		setD(bd.ShiftLeftConst(curD, 1))
		// Accumulator, seeded with the rounding constant 128.
		accQ, setAcc := newReg(18)
		curAcc := bd.MuxW(init, accQ, bd.WordConst(128, 18))
		term := make([]Net, 18)
		for i := range term {
			term[i] = bd.And(curAlpha[0], curD[i])
		}
		accNext, _ := bd.Add(curAcc, term, bd.Const(false))
		setAcc(accNext)
		// Final: dst + (acc >> 8), low 8 bits.
		shifted := accNext[8:16]
		res, _ := bd.Add(dst, shifted, bd.Const(false))
		copy(out[lane*8:lane*8+8], res[:8])
	}
	// Alpha channel: pass the source alpha through.
	for i := 0; i < 8; i++ {
		out[24+i] = bd.Buf(alpha[i])
	}
	bd.Output("out", out)
	bd.Output("done", []Net{done})
	return bd.MustBuild()
}

// AlphaBlendCycles is the instruction latency of AlphaBlend.
const AlphaBlendCycles = 8

// RefAlphaBlend is the reference for AlphaBlend: blends the three colour
// channels of src into dst under src's alpha (bits 31:24).
func RefAlphaBlend(src, dst uint32) uint32 {
	alpha := int32(src >> 24 & 0xFF)
	out := src & 0xFF000000
	for lane := 0; lane < 3; lane++ {
		sh := uint(lane * 8)
		s := int32(src >> sh & 0xFF)
		d := int32(dst >> sh & 0xFF)
		v := d + ((s-d)*alpha+128)>>8
		out |= uint32(v&0xFF) << sh
	}
	return out
}

// BarrelShift32 returns a single-cycle variable shifter: out = a shifted
// by b[4:0]; b[5] selects direction (0 = left, 1 = logical right). Built
// as a five-stage mux ladder, the classic FPGA barrel shifter.
func BarrelShift32() *Netlist {
	bd := NewBuilder("barrel32")
	a := bd.Input("a", 32)
	b := bd.Input("b", 32)
	bd.Input("init", 1)
	right := b[5]
	// Compute both directions stage by stage, select at the end.
	left := append([]Net(nil), a...)
	rgt := append([]Net(nil), a...)
	for stage := 0; stage < 5; stage++ {
		k := 1 << stage
		sel := b[stage]
		left = bd.MuxW(sel, left, bd.ShiftLeftConst(left, k))
		rgt = bd.MuxW(sel, rgt, bd.ShiftRightConst(rgt, k))
	}
	bd.Output("out", bd.MuxW(right, left, rgt))
	bd.Output("done", []Net{bd.Const(true)})
	return bd.MustBuild()
}

// LFSR32 returns a free-running 32-bit Fibonacci LFSR (taps 32,22,2,1):
// each invocation clocks it b[4:0]+1 times and returns the new state. The
// state register seeds from operand a on init when a is nonzero, else from
// the canonical seed 1 — a compact stress case for state save/restore
// because its entire behaviour IS its state.
func LFSR32() *Netlist {
	bd := NewBuilder("lfsr32")
	a := bd.Input("a", 32)
	b := bd.Input("b", 32)
	init := bd.Input("init", 1)[0]
	newReg := bd.regMaker()

	stateQ, setState := newReg(32)
	cntQ, setCnt := newReg(5)

	// Seed selection on init.
	seedNonzero := bd.ReduceOr(a)
	one32 := bd.WordConst(1, 32)
	seed := bd.MuxW(seedNonzero, one32, a)
	cur := bd.MuxW(init, stateQ, seed)

	// One LFSR step: feedback = s31 ^ s21 ^ s1 ^ s0, shift left.
	fb := bd.Xor(bd.Xor(cur[31], cur[21]), bd.Xor(cur[1], cur[0]))
	next := make([]Net, 32)
	next[0] = fb
	for i := 1; i < 32; i++ {
		next[i] = cur[i-1]
	}
	setState(next)

	// Counter runs b[4:0]+1 cycles.
	one5 := bd.WordConst(1, 5)
	cntPlus, _ := bd.Add(cntQ, one5, bd.Const(false))
	setCnt(bd.MuxW(init, cntPlus, one5))
	// Done when the count of completed steps reaches b[4:0]+1: since cnt
	// counts steps done including this one, done = (cntNext-1 == b[4:0]),
	// i.e. current counter value equals the target on its final cycle.
	target := make([]Net, 5)
	copy(target, b[:5])
	curCnt := bd.MuxW(init, cntQ, bd.WordConst(0, 5))
	done := bd.Equal(curCnt, target)
	bd.Output("out", next)
	bd.Output("done", []Net{done})
	return bd.MustBuild()
}
