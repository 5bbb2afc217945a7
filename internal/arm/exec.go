package arm

import (
	"fmt"
	"math"

	"protean/internal/bus"
)

// Data-processing opcodes.
const (
	opAND = iota
	opEOR
	opSUB
	opRSB
	opADD
	opADC
	opSBC
	opRSC
	opTST
	opTEQ
	opCMP
	opCMN
	opORR
	opMOV
	opBIC
	opMVN
)

// condPassed evaluates a condition field against the current flags.
func (c *CPU) condPassed(cond uint32) bool {
	n, z, cf, v := c.flag(FlagN), c.flag(FlagZ), c.flag(FlagC), c.flag(FlagV)
	switch cond {
	case 0x0:
		return z
	case 0x1:
		return !z
	case 0x2:
		return cf
	case 0x3:
		return !cf
	case 0x4:
		return n
	case 0x5:
		return !n
	case 0x6:
		return v
	case 0x7:
		return !v
	case 0x8:
		return cf && !z
	case 0x9:
		return !cf || z
	case 0xA:
		return n == v
	case 0xB:
		return n != v
	case 0xC:
		return !z && n == v
	case 0xD:
		return z || n != v
	case 0xE:
		return true
	default:
		return false // 0xF: unconditional space, treated as undefined later
	}
}

// Step executes one instruction (or takes one interrupt) and returns the
// cycles it consumed. Execution stops inside long CDP operations if an
// interrupt arrives, per §4.4 of the paper.
func (c *CPU) Step() uint32 {
	if c.IRQLine != nil && !c.flag(FlagI) && c.IRQLine() {
		// LR_irq = address of next instruction + 4.
		c.Enter(ExcIRQ, c.R[PC]+4)
		c.tick(3)
		return 3
	}
	fetchPC := c.R[PC] &^ 3
	instr, fault := c.Bus.Fetch32(fetchPC)
	if fault != nil {
		c.Enter(ExcPrefetchAbort, fetchPC+4)
		c.tick(3)
		return 3
	}
	c.Instrs++
	cond := instr >> 28
	if cond == 0xF {
		// ARMv4: the never/unconditional space is undefined.
		c.undefined(fetchPC)
		return c.finish(fetchPC, 4)
	}
	if !c.condPassed(cond) {
		c.R[PC] = fetchPC + 4
		c.tick(1)
		return 1
	}
	// During execution r15 reads as fetch+8.
	c.R[PC] = fetchPC + 8
	c.branched = false
	cycles := c.exec(instr, fetchPC)
	return c.finish(fetchPC, cycles)
}

// finish normalises PC after an instruction: if nothing wrote the PC and
// no exception redirected it, fall through to the next instruction.
func (c *CPU) finish(fetchPC, cycles uint32) uint32 {
	if !c.branched && !c.excValid {
		c.R[PC] = fetchPC + 4
	}
	c.tick(cycles)
	return cycles
}

func (c *CPU) undefined(fetchPC uint32) {
	// LR_und = address of the undefined instruction + 4, so SUBS PC,LR,#4
	// re-executes it.
	c.Enter(ExcUndefined, fetchPC+4)
}

func (c *CPU) dataAbort(fetchPC uint32) {
	// LR_abt = faulting instruction + 8.
	c.Enter(ExcDataAbort, fetchPC+8)
}

// exec dispatches a condition-passed instruction. r15 currently reads
// fetchPC+8. It returns the cycle count.
func (c *CPU) exec(instr, fetchPC uint32) uint32 {
	switch instr >> 25 & 7 {
	case 0:
		// Multiplies, swaps, halfword transfers, BX, PSR ops, register DP.
		if instr&0x0F0 == 0x090 && instr>>23&3 == 0 && instr&(1<<22) == 0 {
			return c.execMul(instr)
		}
		if instr&0x0F0 == 0x090 && instr>>23&3 == 1 {
			return c.execMull(instr)
		}
		if instr&0x0FB00FF0 == 0x01000090 {
			return c.execSwap(instr, fetchPC)
		}
		if instr&0x0FFFFFF0 == 0x012FFF10 {
			return c.execBX(instr)
		}
		if instr&0x90 == 0x90 && instr&0x60 != 0 {
			return c.execHalfword(instr, fetchPC)
		}
		if instr>>23&3 == 2 && instr&(1<<20) == 0 {
			return c.execPSR(instr, fetchPC)
		}
		return c.execDP(instr, fetchPC)
	case 1:
		if instr>>23&3 == 2 && instr&(1<<20) == 0 {
			return c.execPSR(instr, fetchPC)
		}
		return c.execDP(instr, fetchPC)
	case 2, 3:
		if instr>>25&7 == 3 && instr&0x10 != 0 {
			c.undefined(fetchPC)
			return 4
		}
		return c.execSingleTransfer(instr, fetchPC)
	case 4:
		return c.execBlockTransfer(instr, fetchPC)
	case 5:
		return c.execBranch(instr)
	case 6:
		// LDC/STC: not implemented on the ProteanARM.
		c.undefined(fetchPC)
		return 4
	default: // 7
		if instr&(1<<24) != 0 {
			// SWI: LR_svc = next instruction.
			c.Enter(ExcSWI, fetchPC+4)
			return 3
		}
		return c.execCoprocessor(instr, fetchPC)
	}
}

// shiftOperand computes the barrel-shifter result and carry-out for a
// register-form operand. regShift reports whether the amount came from a
// register (affects timing and r15 reads).
func (c *CPU) shiftOperand(instr uint32) (val uint32, carry bool, regShift bool) {
	rm := instr & 0xF
	carry = c.flag(FlagC)
	rmVal := c.R[rm]
	if instr&0x10 != 0 {
		// Register-specified shift amount: r15 reads +12 here.
		regShift = true
		rs := instr >> 8 & 0xF
		if rm == PC {
			rmVal += 4
		}
		amt := c.R[rs] & 0xFF
		if rs == PC {
			amt = (c.R[PC] + 4) & 0xFF
		}
		stype := instr >> 5 & 3
		if amt == 0 {
			return rmVal, carry, true
		}
		switch stype {
		case 0: // LSL
			switch {
			case amt < 32:
				carry = rmVal>>(32-amt)&1 != 0
				val = rmVal << amt
			case amt == 32:
				carry = rmVal&1 != 0
				val = 0
			default:
				carry = false
				val = 0
			}
		case 1: // LSR
			switch {
			case amt < 32:
				carry = rmVal>>(amt-1)&1 != 0
				val = rmVal >> amt
			case amt == 32:
				carry = rmVal>>31 != 0
				val = 0
			default:
				carry = false
				val = 0
			}
		case 2: // ASR
			if amt >= 32 {
				amt = 32
			}
			if amt == 32 {
				if rmVal>>31 != 0 {
					val = 0xFFFFFFFF
					carry = true
				} else {
					val = 0
					carry = false
				}
			} else {
				carry = rmVal>>(amt-1)&1 != 0
				val = uint32(int32(rmVal) >> amt)
			}
		case 3: // ROR
			amt &= 31
			if amt == 0 {
				carry = rmVal>>31 != 0
				val = rmVal
			} else {
				carry = rmVal>>(amt-1)&1 != 0
				val = rmVal>>amt | rmVal<<(32-amt)
			}
		}
		return val, carry, true
	}
	// Immediate shift amount.
	amt := instr >> 7 & 0x1F
	stype := instr >> 5 & 3
	switch stype {
	case 0: // LSL
		if amt == 0 {
			return rmVal, carry, false
		}
		carry = rmVal>>(32-amt)&1 != 0
		return rmVal << amt, carry, false
	case 1: // LSR; #0 encodes #32
		if amt == 0 {
			return 0, rmVal>>31 != 0, false
		}
		return rmVal >> amt, rmVal>>(amt-1)&1 != 0, false
	case 2: // ASR; #0 encodes #32
		if amt == 0 {
			if rmVal>>31 != 0 {
				return 0xFFFFFFFF, true, false
			}
			return 0, false, false
		}
		return uint32(int32(rmVal) >> amt), rmVal>>(amt-1)&1 != 0, false
	default: // ROR; #0 encodes RRX
		if amt == 0 {
			old := carry
			carry = rmVal&1 != 0
			v := rmVal >> 1
			if old {
				v |= 1 << 31
			}
			return v, carry, false
		}
		return rmVal>>amt | rmVal<<(32-amt), rmVal>>(amt-1)&1 != 0, false
	}
}

// execDP executes a data-processing instruction.
func (c *CPU) execDP(instr, fetchPC uint32) uint32 {
	op := instr >> 21 & 0xF
	setS := instr&(1<<20) != 0
	rn := instr >> 16 & 0xF
	rd := instr >> 12 & 0xF

	var op2 uint32
	var shiftCarry bool
	regShift := false
	if instr&(1<<25) != 0 {
		imm := instr & 0xFF
		rot := instr >> 8 & 0xF * 2
		op2 = imm>>rot | imm<<(32-rot)
		if rot == 0 {
			shiftCarry = c.flag(FlagC)
		} else {
			shiftCarry = op2>>31 != 0
		}
	} else {
		op2, shiftCarry, regShift = c.shiftOperand(instr)
	}
	rnVal := c.R[rn]
	if rn == PC && regShift {
		rnVal += 4
	}

	carryIn := uint32(0)
	if c.flag(FlagC) {
		carryIn = 1
	}
	var res uint32
	var wrC, wrV bool
	logical := false
	cOut, vOut := false, false
	switch op {
	case opAND, opTST:
		res = rnVal & op2
		logical = true
	case opEOR, opTEQ:
		res = rnVal ^ op2
		logical = true
	case opSUB, opCMP:
		res = rnVal - op2
		cOut = rnVal >= op2
		vOut = (rnVal^op2)&(rnVal^res)>>31 != 0
		wrC, wrV = true, true
	case opRSB:
		res = op2 - rnVal
		cOut = op2 >= rnVal
		vOut = (op2^rnVal)&(op2^res)>>31 != 0
		wrC, wrV = true, true
	case opADD, opCMN:
		res = rnVal + op2
		cOut = res < rnVal
		vOut = ^(rnVal^op2)&(rnVal^res)>>31 != 0
		wrC, wrV = true, true
	case opADC:
		r64 := uint64(rnVal) + uint64(op2) + uint64(carryIn)
		res = uint32(r64)
		cOut = r64 > 0xFFFFFFFF
		vOut = ^(rnVal^op2)&(rnVal^res)>>31 != 0
		wrC, wrV = true, true
	case opSBC:
		r64 := uint64(rnVal) - uint64(op2) - uint64(1-carryIn)
		res = uint32(r64)
		cOut = uint64(rnVal) >= uint64(op2)+uint64(1-carryIn)
		vOut = (rnVal^op2)&(rnVal^res)>>31 != 0
		wrC, wrV = true, true
	case opRSC:
		r64 := uint64(op2) - uint64(rnVal) - uint64(1-carryIn)
		res = uint32(r64)
		cOut = uint64(op2) >= uint64(rnVal)+uint64(1-carryIn)
		vOut = (op2^rnVal)&(op2^res)>>31 != 0
		wrC, wrV = true, true
	case opORR:
		res = rnVal | op2
		logical = true
	case opMOV:
		res = op2
		logical = true
	case opBIC:
		res = rnVal &^ op2
		logical = true
	case opMVN:
		res = ^op2
		logical = true
	}

	testOnly := op >= opTST && op <= opCMN
	cycles := uint32(1)
	if regShift {
		cycles++
	}
	if !testOnly {
		c.R[rd] = res
		if rd == PC {
			c.branched = true
			cycles += 2
			if setS {
				// Exception return: restore CPSR from SPSR.
				c.SetCPSR(c.SPSR())
				return cycles
			}
		}
	}
	if setS && !(rd == PC && !testOnly) {
		c.setFlag(FlagN, res>>31 != 0)
		c.setFlag(FlagZ, res == 0)
		if logical {
			c.setFlag(FlagC, shiftCarry)
		} else if wrC {
			c.setFlag(FlagC, cOut)
		}
		if wrV {
			c.setFlag(FlagV, vOut)
		}
	}
	return cycles
}

// mulCycles returns the ARM7TDMI early-termination multiplier cycle count.
func mulCycles(rs uint32) uint32 {
	switch {
	case rs&0xFFFFFF00 == 0 || rs&0xFFFFFF00 == 0xFFFFFF00:
		return 1
	case rs&0xFFFF0000 == 0 || rs&0xFFFF0000 == 0xFFFF0000:
		return 2
	case rs&0xFF000000 == 0 || rs&0xFF000000 == 0xFF000000:
		return 3
	default:
		return 4
	}
}

func (c *CPU) execMul(instr uint32) uint32 {
	acc := instr&(1<<21) != 0
	setS := instr&(1<<20) != 0
	rd := instr >> 16 & 0xF
	rn := instr >> 12 & 0xF
	rs := instr >> 8 & 0xF
	rm := instr & 0xF
	res := c.R[rm] * c.R[rs]
	cycles := 1 + mulCycles(c.R[rs])
	if acc {
		res += c.R[rn]
		cycles++
	}
	c.R[rd] = res
	if setS {
		c.setFlag(FlagN, res>>31 != 0)
		c.setFlag(FlagZ, res == 0)
	}
	return cycles
}

func (c *CPU) execMull(instr uint32) uint32 {
	signed := instr&(1<<22) != 0
	acc := instr&(1<<21) != 0
	setS := instr&(1<<20) != 0
	rdHi := instr >> 16 & 0xF
	rdLo := instr >> 12 & 0xF
	rs := instr >> 8 & 0xF
	rm := instr & 0xF
	var res uint64
	if signed {
		res = uint64(int64(int32(c.R[rm])) * int64(int32(c.R[rs])))
	} else {
		res = uint64(c.R[rm]) * uint64(c.R[rs])
	}
	cycles := 2 + mulCycles(c.R[rs])
	if acc {
		res += uint64(c.R[rdHi])<<32 | uint64(c.R[rdLo])
		cycles++
	}
	c.R[rdLo] = uint32(res)
	c.R[rdHi] = uint32(res >> 32)
	if setS {
		c.setFlag(FlagN, res>>63 != 0)
		c.setFlag(FlagZ, res == 0)
	}
	return cycles
}

func (c *CPU) execSwap(instr, fetchPC uint32) uint32 {
	byteOp := instr&(1<<22) != 0
	rn := instr >> 16 & 0xF
	rd := instr >> 12 & 0xF
	rm := instr & 0xF
	addr := c.R[rn]
	if byteOp {
		old, f := c.Bus.Read8(addr, bus.Load)
		if f != nil {
			c.dataAbort(fetchPC)
			return 4
		}
		if f := c.Bus.Write8(addr, byte(c.R[rm])); f != nil {
			c.dataAbort(fetchPC)
			return 4
		}
		c.R[rd] = uint32(old)
	} else {
		old, f := c.Bus.Read32(addr&^3, bus.Load)
		if f != nil {
			c.dataAbort(fetchPC)
			return 4
		}
		if f := c.Bus.Write32(addr&^3, c.R[rm]); f != nil {
			c.dataAbort(fetchPC)
			return 4
		}
		rot := (addr & 3) * 8
		c.R[rd] = old>>rot | old<<(32-rot)
	}
	return 4
}

func (c *CPU) execBX(instr uint32) uint32 {
	rm := instr & 0xF
	// Thumb is not modelled; a BX to an odd address keeps ARM state.
	c.R[PC] = c.R[rm] &^ 1
	c.branched = true
	return 3
}

// execPSR handles MRS and MSR.
func (c *CPU) execPSR(instr, fetchPC uint32) uint32 {
	useSPSR := instr&(1<<22) != 0
	if instr&(1<<21) == 0 {
		// MRS
		if instr&0x0FBF0FFF != 0x010F0000 {
			c.undefined(fetchPC)
			return 4
		}
		rd := instr >> 12 & 0xF
		if useSPSR {
			c.R[rd] = c.SPSR()
		} else {
			c.R[rd] = c.CPSR
		}
		return 1
	}
	// MSR
	var val uint32
	if instr&(1<<25) != 0 {
		imm := instr & 0xFF
		rot := instr >> 8 & 0xF * 2
		val = imm>>rot | imm<<(32-rot)
	} else {
		val = c.R[instr&0xF]
	}
	mask := uint32(0)
	if instr&(1<<16) != 0 {
		mask |= 0x000000FF
	}
	if instr&(1<<17) != 0 {
		mask |= 0x0000FF00
	}
	if instr&(1<<18) != 0 {
		mask |= 0x00FF0000
	}
	if instr&(1<<19) != 0 {
		mask |= 0xFF000000
	}
	if !c.privileged() {
		mask &= 0xF0000000 // user mode may only touch the flags
	}
	if useSPSR {
		c.SetSPSR(c.SPSR()&^mask | val&mask)
	} else {
		c.SetCPSR(c.CPSR&^mask | val&mask)
	}
	return 1
}

// execSingleTransfer handles LDR/STR/LDRB/STRB.
func (c *CPU) execSingleTransfer(instr, fetchPC uint32) uint32 {
	immForm := instr&(1<<25) == 0
	pre := instr&(1<<24) != 0
	up := instr&(1<<23) != 0
	byteOp := instr&(1<<22) != 0
	writeback := instr&(1<<21) != 0
	load := instr&(1<<20) != 0
	rn := instr >> 16 & 0xF
	rd := instr >> 12 & 0xF

	var offset uint32
	if immForm {
		offset = instr & 0xFFF
	} else {
		offset, _, _ = c.shiftOperand(instr &^ 0x10) // register shift form is illegal here
	}
	base := c.R[rn]
	addr := base
	ea := base
	if up {
		ea = base + offset
	} else {
		ea = base - offset
	}
	if pre {
		addr = ea
	}

	if load {
		var val uint32
		if byteOp {
			b8, f := c.Bus.Read8(addr, bus.Load)
			if f != nil {
				c.dataAbort(fetchPC)
				return 4
			}
			val = uint32(b8)
		} else {
			w, f := c.Bus.Read32(addr&^3, bus.Load)
			if f != nil {
				c.dataAbort(fetchPC)
				return 4
			}
			rot := (addr & 3) * 8
			val = w>>rot | w<<(32-rot)
		}
		// Writeback (post-index always, pre-index with W); if rn == rd the
		// loaded value wins.
		if (!pre || writeback) && rn != rd {
			c.R[rn] = ea
		}
		c.R[rd] = val
		if rd == PC {
			c.R[PC] &^= 3
			c.branched = true
			return 5
		}
		return 3
	}
	val := c.R[rd]
	if rd == PC {
		val = fetchPC + 12 // ARM7TDMI stores PC+12
	}
	var f *bus.Fault
	if byteOp {
		f = c.Bus.Write8(addr, byte(val))
	} else {
		f = c.Bus.Write32(addr&^3, val)
	}
	if f != nil {
		c.dataAbort(fetchPC)
		return 4
	}
	if !pre || writeback {
		c.R[rn] = ea
	}
	return 2
}

// execHalfword handles LDRH/STRH/LDRSB/LDRSH.
func (c *CPU) execHalfword(instr, fetchPC uint32) uint32 {
	pre := instr&(1<<24) != 0
	up := instr&(1<<23) != 0
	immForm := instr&(1<<22) != 0
	writeback := instr&(1<<21) != 0
	load := instr&(1<<20) != 0
	rn := instr >> 16 & 0xF
	rd := instr >> 12 & 0xF
	sh := instr >> 5 & 3

	var offset uint32
	if immForm {
		offset = instr>>4&0xF0 | instr&0xF
	} else {
		offset = c.R[instr&0xF]
	}
	base := c.R[rn]
	ea := base
	if up {
		ea = base + offset
	} else {
		ea = base - offset
	}
	addr := base
	if pre {
		addr = ea
	}

	if load {
		var val uint32
		switch sh {
		case 1: // LDRH
			h, f := c.Bus.Read16(addr&^1, bus.Load)
			if f != nil {
				c.dataAbort(fetchPC)
				return 4
			}
			val = uint32(h)
		case 2: // LDRSB
			b8, f := c.Bus.Read8(addr, bus.Load)
			if f != nil {
				c.dataAbort(fetchPC)
				return 4
			}
			val = uint32(int32(int8(b8)))
		case 3: // LDRSH
			h, f := c.Bus.Read16(addr&^1, bus.Load)
			if f != nil {
				c.dataAbort(fetchPC)
				return 4
			}
			val = uint32(int32(int16(h)))
		default:
			c.undefined(fetchPC)
			return 4
		}
		if (!pre || writeback) && rn != rd {
			c.R[rn] = ea
		}
		c.R[rd] = val
		return 3
	}
	if sh != 1 {
		c.undefined(fetchPC)
		return 4
	}
	if f := c.Bus.Write16(addr&^1, uint16(c.R[rd])); f != nil {
		c.dataAbort(fetchPC)
		return 4
	}
	if !pre || writeback {
		c.R[rn] = ea
	}
	return 2
}

// execBlockTransfer handles LDM/STM.
func (c *CPU) execBlockTransfer(instr, fetchPC uint32) uint32 {
	pre := instr&(1<<24) != 0
	up := instr&(1<<23) != 0
	sbit := instr&(1<<22) != 0
	writeback := instr&(1<<21) != 0
	load := instr&(1<<20) != 0
	rn := instr >> 16 & 0xF
	list := instr & 0xFFFF
	n := uint32(0)
	for i := 0; i < 16; i++ {
		if list>>i&1 != 0 {
			n++
		}
	}
	if n == 0 {
		// Unpredictable; treat as NOP with writeback of +/-64.
		return 1
	}
	base := c.R[rn]
	var start uint32
	if up {
		if pre {
			start = base + 4
		} else {
			start = base
		}
	} else {
		if pre {
			start = base - n*4
		} else {
			start = base - n*4 + 4
		}
	}
	var newBase uint32
	if up {
		newBase = base + n*4
	} else {
		newBase = base - n*4
	}

	userBank := sbit && !(load && list>>PC&1 != 0)
	addr := start
	if load {
		if writeback {
			c.R[rn] = newBase
		}
		for i := 0; i < 16; i++ {
			if list>>i&1 == 0 {
				continue
			}
			w, f := c.Bus.Read32(addr&^3, bus.Load)
			if f != nil {
				c.dataAbort(fetchPC)
				return 4
			}
			if userBank {
				c.SetUserReg(i, w)
			} else {
				c.R[i] = w
			}
			addr += 4
		}
		cycles := n + 2
		if list>>PC&1 != 0 {
			c.R[PC] &^= 3
			c.branched = true
			if sbit {
				c.SetCPSR(c.SPSR())
			}
			cycles += 2
		}
		return cycles
	}
	first := true
	for i := 0; i < 16; i++ {
		if list>>i&1 == 0 {
			continue
		}
		var v uint32
		if userBank {
			v = c.UserReg(i)
		} else {
			v = c.R[i]
		}
		if i == PC {
			v = fetchPC + 12
		}
		if f := c.Bus.Write32(addr&^3, v); f != nil {
			c.dataAbort(fetchPC)
			return 4
		}
		addr += 4
		if first && writeback {
			// Base writeback happens after the first store.
			c.R[rn] = newBase
			first = false
		}
	}
	if writeback && first {
		c.R[rn] = newBase
	}
	return n + 1
}

func (c *CPU) execBranch(instr uint32) uint32 {
	link := instr&(1<<24) != 0
	off := instr & 0x00FFFFFF
	if off&0x00800000 != 0 {
		off |= 0xFF000000
	}
	off <<= 2
	if link {
		c.R[LR] = c.R[PC] - 4 // fetch+4
	}
	c.R[PC] = c.R[PC] + off
	c.branched = true
	return 3
}

// runLimit bounds one run of a coprocessor execution: it ends on the
// cycle the interrupt line next rises, so tick sees the edge on that very
// cycle and the poll after the run sees it where a per-cycle loop would.
// While the line is already asserted a run is one cycle when the
// instruction can be interrupted (the poll aborts it) and unbounded when
// it cannot (no edge is left to land on).
func (c *CPU) runLimit(interruptible bool) uint32 {
	if c.CyclesToIRQ == nil {
		return 1
	}
	n := c.CyclesToIRQ()
	if n == 0 {
		if interruptible {
			return 1
		}
		n = math.MaxUint32
	}
	return uint32(min(n, math.MaxUint32))
}

// execCoprocessor handles CDP/MCR/MRC, including the Proteus RFU's
// interruptible long instructions and software dispatch.
func (c *CPU) execCoprocessor(instr, fetchPC uint32) uint32 {
	cpNum := instr >> 8 & 0xF
	cop := c.Cop[cpNum]
	if cop == nil {
		c.undefined(fetchPC)
		return 4
	}
	user := !c.privileged()
	if instr&0x10 == 0 {
		// CDP
		opc1 := instr >> 20 & 0xF
		crn := instr >> 16 & 0xF
		crd := instr >> 12 & 0xF
		crm := instr & 0xF
		opc2 := instr >> 5 & 7
		out := cop.CDP(opc1, crd, crn, crm, opc2, user)
		switch out.Action {
		case CDPUndefined:
			c.undefined(fetchPC)
			return 4
		case CDPBranchLink:
			// Software dispatch (§4.3): decode as branch-and-link.
			c.R[LR] = fetchPC + 4
			c.R[PC] = out.Addr &^ 3
			c.branched = true
			return 3 + out.Cycles
		default:
			c.tick(1 + out.Cycles)
			interruptible := !c.AtomicCDP && c.IRQLine != nil && !c.flag(FlagI)
			for {
				n, done := out.Exec.Run(c.runLimit(interruptible))
				c.tick(n)
				if done {
					return 0 // cycles already ticked
				}
				if interruptible && c.IRQLine() {
					// Interrupt during a long instruction: abort and
					// arrange for the IRQ return to reissue it (§4.4).
					out.Exec.Abort()
					c.Enter(ExcIRQ, fetchPC+4)
					c.tick(3)
					return 0
				}
			}
		}
	}
	// MCR/MRC
	opc1 := instr >> 21 & 7
	crn := instr >> 16 & 0xF
	rd := instr >> 12 & 0xF
	crm := instr & 0xF
	opc2 := instr >> 5 & 7
	if instr&(1<<20) == 0 {
		v := c.R[rd]
		if rd == PC {
			v = fetchPC + 12
		}
		if !cop.MCR(opc1, crn, crm, opc2, v, user) {
			c.undefined(fetchPC)
			return 4
		}
		return 2
	}
	v, ok := cop.MRC(opc1, crn, crm, opc2, user)
	if !ok {
		c.undefined(fetchPC)
		return 4
	}
	if rd == PC {
		// MRC to r15 sets the flags from the top nibble.
		c.CPSR = c.CPSR&0x0FFFFFFF | v&0xF0000000
	} else {
		c.R[rd] = v
	}
	return 3
}

// Run executes instructions until the PC reaches stopPC, the cycle budget
// is exhausted, or an exception is taken; it reports how it stopped.
// This is a convenience for tests and tools; the machine layer has its own
// scheduling loop.
type StopReason int

// Stop reasons for Run.
const (
	StopPC StopReason = iota
	StopBudget
	StopException
)

// Run is a simple driver used by tests and the standalone simulator.
func (c *CPU) Run(stopPC uint32, maxCycles uint64) StopReason {
	start := c.Cycles
	for {
		if c.R[PC] == stopPC {
			return StopPC
		}
		if c.Cycles-start >= maxCycles {
			return StopBudget
		}
		c.Step()
		if _, ok := c.TookException(); ok {
			return StopException
		}
	}
}

func (c *CPU) String() string {
	return fmt.Sprintf("pc=%#08x mode=%s cpsr=%#08x cycles=%d", c.R[PC], c.Mode(), c.CPSR, c.Cycles)
}
