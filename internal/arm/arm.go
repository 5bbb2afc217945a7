// Package arm implements an instruction-level model of an ARM7TDMI-class
// integer core (ARMv4, ARM state), the host processor of the ProteanARM
// demonstrator. It executes user programs, takes interrupts and traps, and
// exposes the coprocessor interface through which the Proteus reconfigurable
// function unit is attached (the standard way of adding function units to
// the ARM, per §5 of the paper).
//
// The model is cycle-approximate using the ARM7TDMI S/N/I cycle counts with
// single-cycle memory; the paper's figures measure completion time in clock
// cycles, so the cost structure (not wall-clock) is what matters.
package arm

import (
	"fmt"

	"protean/internal/bus"
)

// Mode is a processor mode (CPSR M field).
type Mode uint32

// Processor modes.
const (
	ModeUsr Mode = 0x10
	ModeFiq Mode = 0x11
	ModeIrq Mode = 0x12
	ModeSvc Mode = 0x13
	ModeAbt Mode = 0x17
	ModeUnd Mode = 0x1B
	ModeSys Mode = 0x1F
)

func (m Mode) String() string {
	switch m {
	case ModeUsr:
		return "usr"
	case ModeFiq:
		return "fiq"
	case ModeIrq:
		return "irq"
	case ModeSvc:
		return "svc"
	case ModeAbt:
		return "abt"
	case ModeUnd:
		return "und"
	case ModeSys:
		return "sys"
	default:
		return fmt.Sprintf("mode%#x", uint32(m))
	}
}

func (m Mode) valid() bool {
	switch m {
	case ModeUsr, ModeFiq, ModeIrq, ModeSvc, ModeAbt, ModeUnd, ModeSys:
		return true
	}
	return false
}

// CPSR flag bits.
const (
	FlagN = 1 << 31
	FlagZ = 1 << 30
	FlagC = 1 << 29
	FlagV = 1 << 28
	FlagI = 1 << 7
	FlagF = 1 << 6
	FlagT = 1 << 5
)

// Exception identifies an exception vector.
type Exception int

// Exceptions, in priority order.
const (
	ExcReset Exception = iota
	ExcUndefined
	ExcSWI
	ExcPrefetchAbort
	ExcDataAbort
	ExcIRQ
	ExcFIQ
)

// Vector returns the exception vector address.
func (e Exception) Vector() uint32 {
	switch e {
	case ExcReset:
		return 0x00
	case ExcUndefined:
		return 0x04
	case ExcSWI:
		return 0x08
	case ExcPrefetchAbort:
		return 0x0C
	case ExcDataAbort:
		return 0x10
	case ExcIRQ:
		return 0x18
	case ExcFIQ:
		return 0x1C
	}
	return 0
}

func (e Exception) String() string {
	switch e {
	case ExcReset:
		return "reset"
	case ExcUndefined:
		return "undefined"
	case ExcSWI:
		return "swi"
	case ExcPrefetchAbort:
		return "prefetch-abort"
	case ExcDataAbort:
		return "data-abort"
	case ExcIRQ:
		return "irq"
	case ExcFIQ:
		return "fiq"
	}
	return "exception?"
}

// Register aliases.
const (
	SP = 13
	LR = 14
	PC = 15
)

// CPU is the processor state plus its environment hooks.
type CPU struct {
	// R is the current register view (r0-r15). R[PC] holds the address of
	// the next instruction to fetch; during execution, reads of r15 see
	// fetch+8 per the architecture.
	R    [16]uint32
	CPSR uint32

	// Banked registers: usr r8-r14 live in bankUsr; each privileged mode
	// banks r13/r14 (FIQ banks r8-r14). SPSR per banked mode.
	bankUsr [7]uint32 // r8..r14
	bankFiq [7]uint32 // r8..r14
	bankIrq [2]uint32 // r13,r14
	bankSvc [2]uint32
	bankAbt [2]uint32
	bankUnd [2]uint32
	spsr    [5]uint32 // fiq,irq,svc,abt,und

	// Bus is the memory system.
	Bus *bus.Bus
	// Cop is the coprocessor array; nil entries are undefined.
	Cop [16]Coprocessor
	// IRQLine is polled before each instruction and during long
	// coprocessor operations; nil means no interrupt source.
	IRQLine func() bool
	// CyclesToIRQ, if set, reports how many cycles from now IRQLine next
	// rises: 0 while it is asserted, ^uint64(0) when it never will. A
	// long coprocessor operation is clocked in runs that end on that
	// cycle, so the edge and any abort land exactly where cycle-by-cycle
	// clocking puts them; nil clocks one cycle per run.
	CyclesToIRQ func() uint64
	// OnTick, if set, is called as cycles elapse (at least once per
	// instruction) so devices can advance in near-real time.
	OnTick func(cycles uint32)
	// AtomicCDP makes coprocessor data operations uninterruptible: IRQs
	// are held off until the instruction completes. This is the design
	// alternative §4.4 of the paper rejects; the interrupt-latency
	// ablation measures why.
	AtomicCDP bool

	// Cycles is the total elapsed cycle count.
	Cycles uint64
	// Instrs counts retired instructions (condition-failed ones included).
	Instrs uint64

	// LastException records the most recent exception taken, for the
	// machine layer to dispatch HLE handlers.
	LastException Exception
	excValid      bool
	// branched is set by any instruction that writes the PC, so the step
	// logic knows not to advance to the next instruction (a branch whose
	// target happens to be fetch+8 is still a branch).
	branched bool
}

// New returns a CPU in reset state attached to the given bus.
func New(b *bus.Bus) *CPU {
	c := &CPU{Bus: b}
	c.Reset()
	return c
}

// Reset performs the architectural reset: supervisor mode, interrupts
// masked, PC at the reset vector.
func (c *CPU) Reset() {
	c.CPSR = uint32(ModeSvc) | FlagI | FlagF
	c.R = [16]uint32{}
	c.excValid = false
}

// Mode reports the current processor mode.
func (c *CPU) Mode() Mode { return Mode(c.CPSR & 0x1F) }

func (c *CPU) privileged() bool { return c.Mode() != ModeUsr }

// flag helpers.
func (c *CPU) flag(bit uint32) bool { return c.CPSR&bit != 0 }
func (c *CPU) setFlag(bit uint32, v bool) {
	if v {
		c.CPSR |= bit
	} else {
		c.CPSR &^= bit
	}
}

// spsrIndex maps a banked mode to its SPSR slot; -1 for usr/sys.
func spsrIndex(m Mode) int {
	switch m {
	case ModeFiq:
		return 0
	case ModeIrq:
		return 1
	case ModeSvc:
		return 2
	case ModeAbt:
		return 3
	case ModeUnd:
		return 4
	}
	return -1
}

// SPSR returns the saved PSR of the current mode (0 in usr/sys, where it is
// unpredictable architecturally).
func (c *CPU) SPSR() uint32 {
	if i := spsrIndex(c.Mode()); i >= 0 {
		return c.spsr[i]
	}
	return 0
}

// SetSPSR writes the saved PSR of the current mode.
func (c *CPU) SetSPSR(v uint32) {
	if i := spsrIndex(c.Mode()); i >= 0 {
		c.spsr[i] = v
	}
}

// bankFor returns the banked storage backing r13/r14 (and r8-r12 for FIQ)
// in the given mode.
func (c *CPU) swapBank(from, to Mode) {
	if from == to {
		return
	}
	// Normalise sys to usr: they share all registers.
	if from == ModeSys {
		from = ModeUsr
	}
	if to == ModeSys {
		to = ModeUsr
	}
	if from == to {
		return
	}
	// Save current view into 'from' bank.
	switch from {
	case ModeFiq:
		copy(c.bankFiq[:], c.R[8:15])
	default:
		copy(c.bankUsr[:5], c.R[8:13])
		switch from {
		case ModeUsr:
			c.bankUsr[5], c.bankUsr[6] = c.R[13], c.R[14]
		case ModeIrq:
			c.bankIrq[0], c.bankIrq[1] = c.R[13], c.R[14]
		case ModeSvc:
			c.bankSvc[0], c.bankSvc[1] = c.R[13], c.R[14]
		case ModeAbt:
			c.bankAbt[0], c.bankAbt[1] = c.R[13], c.R[14]
		case ModeUnd:
			c.bankUnd[0], c.bankUnd[1] = c.R[13], c.R[14]
		}
	}
	// Load view from 'to' bank.
	switch to {
	case ModeFiq:
		copy(c.R[8:15], c.bankFiq[:])
	default:
		copy(c.R[8:13], c.bankUsr[:5])
		switch to {
		case ModeUsr:
			c.R[13], c.R[14] = c.bankUsr[5], c.bankUsr[6]
		case ModeIrq:
			c.R[13], c.R[14] = c.bankIrq[0], c.bankIrq[1]
		case ModeSvc:
			c.R[13], c.R[14] = c.bankSvc[0], c.bankSvc[1]
		case ModeAbt:
			c.R[13], c.R[14] = c.bankAbt[0], c.bankAbt[1]
		case ModeUnd:
			c.R[13], c.R[14] = c.bankUnd[0], c.bankUnd[1]
		}
	}
}

// setMode switches processor mode, rebanking registers.
func (c *CPU) setMode(to Mode) {
	from := c.Mode()
	if !to.valid() {
		to = ModeUsr // unpredictable architecturally; pick something safe
	}
	c.swapBank(from, to)
	c.CPSR = c.CPSR&^0x1F | uint32(to)
}

// SetCPSR writes the whole CPSR including the mode field, rebanking.
func (c *CPU) SetCPSR(v uint32) {
	to := Mode(v & 0x1F)
	if !to.valid() {
		to = ModeUsr
	}
	c.swapBank(c.Mode(), to)
	c.CPSR = v&^0x1F | uint32(to)
}

// UserReg reads a user-bank register regardless of current mode, for
// kernel context handling.
func (c *CPU) UserReg(i int) uint32 {
	m := c.Mode()
	if m == ModeUsr || m == ModeSys {
		return c.R[i]
	}
	switch {
	case i < 8:
		return c.R[i]
	case m == ModeFiq:
		return c.bankUsr[i-8]
	case i < 13:
		return c.R[i]
	default:
		return c.bankUsr[i-8]
	}
}

// SetUserReg writes a user-bank register regardless of current mode.
func (c *CPU) SetUserReg(i int, v uint32) {
	m := c.Mode()
	if m == ModeUsr || m == ModeSys || i < 8 || (i < 13 && m != ModeFiq) {
		c.R[i] = v
		return
	}
	c.bankUsr[i-8] = v
}

// Enter raises an exception architecturally: banks the return address and
// PSR, switches mode, masks interrupts, and vectors.
func (c *CPU) Enter(e Exception, retAddr uint32) {
	var to Mode
	switch e {
	case ExcReset, ExcSWI:
		to = ModeSvc
	case ExcUndefined:
		to = ModeUnd
	case ExcPrefetchAbort, ExcDataAbort:
		to = ModeAbt
	case ExcIRQ:
		to = ModeIrq
	case ExcFIQ:
		to = ModeFiq
	default:
		to = ModeSvc
	}
	old := c.CPSR
	c.setMode(to)
	c.SetSPSR(old)
	c.R[LR] = retAddr
	c.CPSR |= FlagI
	if e == ExcReset || e == ExcFIQ {
		c.CPSR |= FlagF
	}
	c.R[PC] = e.Vector()
	c.LastException = e
	c.excValid = true
}

// TookException reports and clears the exception flag set by the last Step,
// used by the machine layer to dispatch HLE vector handlers.
func (c *CPU) TookException() (Exception, bool) {
	if !c.excValid {
		return 0, false
	}
	c.excValid = false
	return c.LastException, true
}

// Snapshot is a process context: the user-visible register state.
type Snapshot struct {
	R    [16]uint32
	CPSR uint32
}

// SaveUserContext captures the user-bank registers and CPSR for a context
// switch. It must be called from a privileged mode after an exception, with
// retPC the address at which the process resumes and retCPSR its saved PSR.
func (c *CPU) SaveUserContext(retPC, retCPSR uint32) Snapshot {
	var s Snapshot
	for i := 0; i < 15; i++ {
		s.R[i] = c.UserReg(i)
	}
	s.R[PC] = retPC
	s.CPSR = retCPSR
	return s
}

// LoadUserContext restores a process context saved by SaveUserContext; the
// caller then returns to user mode by setting CPSR = s.CPSR and PC = s.R[PC]
// (ReturnTo does both).
func (c *CPU) LoadUserContext(s Snapshot) {
	for i := 0; i < 15; i++ {
		c.SetUserReg(i, s.R[i])
	}
}

// ReturnTo performs an exception return to the given PSR and PC.
func (c *CPU) ReturnTo(cpsr, pc uint32) {
	c.SetCPSR(cpsr)
	c.R[PC] = pc
}

func (c *CPU) tick(n uint32) {
	c.Cycles += uint64(n)
	if c.OnTick != nil {
		c.OnTick(n)
	}
}
