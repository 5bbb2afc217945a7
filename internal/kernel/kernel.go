// Package kernel implements POrSCHE (Proteus Operating System and
// Configurable Hardware Environment), the from-scratch kernel of §5: a
// pre-emptive round-robin process scheduler plus the Custom Instruction
// Scheduler (CIS) that manages the circuits applications register.
//
// User processes are real ARM programs executed by the machine model; the
// kernel itself runs as host code with an explicit cycle cost model
// (CostModel) charged through the machine clock, so scheduling behaviour —
// when the kernel runs and how long its decisions take — matches a native
// implementation. This substitution is recorded in DESIGN.md §6.
package kernel

import (
	"fmt"

	"protean/internal/arm"
	"protean/internal/asm"
	"protean/internal/bus"
	"protean/internal/core"
	"protean/internal/machine"
	"protean/internal/trace"
)

// Syscall numbers (SWI immediates).
const (
	SysExit       = 0 // r0 = exit code
	SysPutc       = 1 // r0 = character
	SysYield      = 2
	SysRegisterCI = 3 // r0 -> {cid, image index, software-alternative addr}
	SysGetPID     = 4 // returns PID in r0
	SysPutDec     = 5 // print r0 as unsigned decimal
	SysCycles     = 6 // returns low cycle count in r0
	SysUnregister = 7 // r0 = cid
)

// RegionSize is the per-process memory window; process n owns
// [n*RegionSize, (n+1)*RegionSize).
const RegionSize = 1 << 20

// CostModel charges kernel work to the machine clock, in cycles.
type CostModel struct {
	// ContextSwitch covers saving and restoring the ARM registers, the
	// RFU register file, the operand-capture registers and the PID
	// register.
	ContextSwitch uint32
	// FaultEntry covers undefined-instruction trap entry, instruction
	// decode and registration lookup.
	FaultEntry uint32
	// SyscallEntry covers SWI decode and dispatch.
	SyscallEntry uint32
	// MapInstall covers one dispatch-TLB insertion.
	MapInstall uint32
	// ScheduleDecision covers reading the usage counters and choosing a
	// victim.
	ScheduleDecision uint32
}

// DefaultCosts is calibrated for an ARM7-class core: a context switch is a
// couple of hundred cycles (31 register moves plus queue work), trap entry
// a few dozen.
var DefaultCosts = CostModel{
	ContextSwitch:    180,
	FaultEntry:       60,
	SyscallEntry:     30,
	MapInstall:       12,
	ScheduleDecision: 40,
}

// Config parameterises the kernel.
type Config struct {
	// Quantum is the scheduling quantum in cycles. The paper evaluates
	// 10 ms and 1 ms quanta; at the assumed 100 MHz clock those are 10^6
	// and 10^5 cycles.
	Quantum uint32
	// Policy picks the CIS replacement policy.
	Policy PolicyKind
	// SoftDispatch defers to software alternatives under contention
	// instead of swapping circuits (§5.1.2).
	SoftDispatch bool
	// Sharing lets identical images share one PFU instance (§5.1 notes
	// the final system would do this; the paper's runs disable it).
	Sharing bool
	// Costs is the kernel cycle cost model.
	Costs CostModel
	// Seed drives the random replacement policy.
	Seed int64
	// Trace, if non-nil, records kernel events.
	Trace *trace.Log
	// FullReadback disables the §4.1 split configuration: evicting a
	// circuit reads back the whole static image instead of just the state
	// frames. Used by the A2 ablation to measure what the split buys.
	FullReadback bool
	// PageInCycles models the §5.1.3 virtual-memory discussion: under
	// memory pressure the bitstream is not resident and every full
	// configuration load first pages it in from disk, costing this many
	// extra cycles. 0 = bitstreams cached in RAM (the paper's runs).
	PageInCycles uint32
	// AtomicCDP makes custom instructions uninterruptible (the §4.4
	// design alternative), for the interrupt-latency ablation.
	AtomicCDP bool
	// MaxFaultsPerProc kills a process that faults implausibly often
	// (runaway guard); 0 disables.
	MaxFaultsPerProc uint64
	// InstrHook, if set, observes the PC before every instruction — a
	// debugging aid (cmd/proteansim -disasm streams a disassembly through
	// it).
	InstrHook func(pc uint32)
	// OnProcExit, if set, observes every process the moment it leaves the
	// ready state (exit or kill), after its completion statistics are
	// final. The protean facade feeds its progress sink from this.
	OnProcExit func(p *Process)
}

// ProcState is a process's lifecycle state.
type ProcState int

// Process states.
const (
	ProcReady ProcState = iota
	ProcExited
	ProcKilled
)

func (s ProcState) String() string {
	switch s {
	case ProcReady:
		return "ready"
	case ProcExited:
		return "exited"
	case ProcKilled:
		return "killed"
	default:
		return fmt.Sprintf("state%d", int(s))
	}
}

// ProcStats records per-process scheduling activity.
type ProcStats struct {
	StartCycle      uint64
	CompletionCycle uint64
	Switches        uint64
	Faults          uint64
	UserInstrs      uint64
}

// Process is one POrSCHE process: an ARM context plus its RFU state and
// custom-instruction registrations.
type Process struct {
	PID  uint32
	Name string

	State    ProcState
	ExitCode uint32
	Stats    ProcStats

	ctx     arm.Snapshot
	rfuRegs [core.NumRegs]uint32
	capture core.CaptureState

	images        []*core.Image
	registrations map[uint32]*Registration

	base uint32
}

// KernelStats aggregates scheduler activity.
type KernelStats struct {
	ContextSwitches uint64
	TimerIRQs       uint64
	Syscalls        uint64
	Kills           uint64
	KernelCycles    uint64
	// MaxIRQLatency and SumIRQLatency measure cycles from timer assertion
	// to IRQ entry, the quantity §4.4's interruptible instructions bound.
	MaxIRQLatency uint64
	SumIRQLatency uint64
}

// Kernel is a POrSCHE instance bound to one machine.
type Kernel struct {
	M   *machine.Machine
	CIS *CIS

	Stats KernelStats

	cfg     Config
	procs   []*Process
	current int // index into procs, -1 when nothing dispatched
	ready   int // processes in ProcReady, maintained by Spawn and exit
	tlog    *trace.Log
}

// New builds a kernel on a machine.
func New(m *machine.Machine, cfg Config) *Kernel {
	if cfg.Quantum == 0 {
		cfg.Quantum = 1_000_000 // 10 ms at 100 MHz
	}
	if cfg.Costs == (CostModel{}) {
		cfg.Costs = DefaultCosts
	}
	k := &Kernel{
		M:       m,
		cfg:     cfg,
		current: -1,
		tlog:    cfg.Trace,
	}
	k.CIS = newCIS(k)
	m.CPU.AtomicCDP = cfg.AtomicCDP
	return k
}

// Config returns the kernel configuration.
func (k *Kernel) Config() Config { return k.cfg }

func (k *Kernel) charge(cycles uint32) {
	k.M.Stall(cycles)
	k.Stats.KernelCycles += uint64(cycles)
}

func (k *Kernel) log(kind trace.Kind, pid uint32, note string) {
	k.tlog.Add(k.M.Cycles(), kind, pid, note)
}

// NextBase returns the memory region base the next spawned process will
// receive; workload builders assemble their programs at this origin. The
// value is only meaningful while the 32-bit address space has room for
// another region — Spawn reports the error when it does not.
func (k *Kernel) NextBase() uint32 {
	return uint32(len(k.procs)+1) * RegionSize
}

// Spawn creates a process from an assembled program. The program must be
// assembled at the base returned by NextBase before the call; its pages
// are mapped into RAM copy-on-write (asm.Program.Image), so every spawn
// of one program shares the pages it never stores to. images is the
// application's circuit table, referenced by index from the registration
// syscall.
func (k *Kernel) Spawn(name string, prog *asm.Program, images []*core.Image) (*Process, error) {
	// The region [base, base+RegionSize) must fit the 32-bit address
	// space without wrapping; past ~4094 processes uint32(NextBase) would
	// silently alias region 0.
	if end := (uint64(len(k.procs)) + 2) * RegionSize; end > 1<<32-1 {
		return nil, fmt.Errorf("kernel: cannot spawn %q: %d processes exhaust the 32-bit address space (%d-byte regions)",
			name, len(k.procs), RegionSize)
	}
	base := k.NextBase()
	if prog.Origin < base || prog.End() > base+RegionSize {
		return nil, fmt.Errorf("kernel: program %q at %#x..%#x outside region %#x", name, prog.Origin, prog.End(), base)
	}
	if err := k.M.LoadProgram(prog.Image()); err != nil {
		return nil, err
	}
	p := &Process{
		PID:           uint32(len(k.procs) + 1),
		Name:          name,
		images:        images,
		registrations: map[uint32]*Registration{},
		base:          base,
	}
	p.ctx.R[arm.PC] = prog.Origin
	p.ctx.R[arm.SP] = base + RegionSize - 16
	p.ctx.CPSR = uint32(arm.ModeUsr) // interrupts enabled
	k.procs = append(k.procs, p)
	k.ready++
	k.log(trace.EvSpawn, p.PID, name)
	return p, nil
}

// Processes returns the process table.
func (k *Kernel) Processes() []*Process { return k.procs }

// allDone runs once per simulated instruction, so it must be O(1): the
// ready count is maintained at spawn and exit instead of rescanning the
// process table.
func (k *Kernel) allDone() bool { return k.ready == 0 }

// nextReady picks the next ready process after the given index, round
// robin; -1 if none.
func (k *Kernel) nextReady(after int) int {
	n := len(k.procs)
	for i := 1; i <= n; i++ {
		j := (after + i) % n
		if k.procs[j].State == ProcReady {
			return j
		}
	}
	return -1
}

// dispatch switches to process index i, charging the context switch and
// granting a fresh quantum.
func (k *Kernel) dispatch(i int) {
	p := k.procs[i]
	cpu := k.M.CPU
	rfu := k.M.RFU
	cpu.LoadUserContext(p.ctx)
	rfu.Regs = p.rfuRegs
	rfu.SetCapture(p.capture)
	rfu.PID = p.PID
	k.charge(k.cfg.Costs.ContextSwitch)
	k.M.Timer.SetPeriod(k.cfg.Quantum)
	k.M.Timer.Enable(true)
	k.M.Timer.Ack()
	k.current = i
	p.Stats.Switches++
	k.Stats.ContextSwitches++
	if p.Stats.StartCycle == 0 {
		p.Stats.StartCycle = k.M.Cycles()
	}
	k.log(trace.EvSwitch, p.PID, "")
	cpu.ReturnTo(p.ctx.CPSR, p.ctx.R[arm.PC])
}

// saveCurrent captures the running process's context, resuming at retPC
// with retCPSR.
func (k *Kernel) saveCurrent(retPC, retCPSR uint32) {
	p := k.procs[k.current]
	p.ctx = k.M.CPU.SaveUserContext(retPC, retCPSR)
	p.rfuRegs = k.M.RFU.Regs
	p.capture = k.M.RFU.Capture()
}

// Start dispatches the first process. Call after spawning the workload.
func (k *Kernel) Start() error {
	first := k.nextReady(len(k.procs) - 1)
	if first < 0 {
		return fmt.Errorf("kernel: nothing to run")
	}
	k.dispatch(first)
	return nil
}

// Run executes until every process has exited or the cycle budget is
// exhausted.
func (k *Kernel) Run(maxCycles uint64) error {
	return k.RunUntil(maxCycles, nil)
}

// stopPollInstrs is how many instructions RunUntil executes between polls
// of its stop hook: frequent enough that cancellation lands within
// microseconds of wall time, rare enough to stay off the hot path.
const stopPollInstrs = 4096

// RunUntil executes like Run but additionally polls stop (when non-nil)
// every stopPollInstrs instructions; the first non-nil error it returns
// aborts the run with that error. This is how context cancellation is
// threaded through the simulation loop without a per-instruction check.
func (k *Kernel) RunUntil(maxCycles uint64, stop func() error) error {
	cpu := k.M.CPU
	for n := uint64(0); ; n++ {
		if k.allDone() {
			return nil
		}
		if stop != nil && n%stopPollInstrs == 0 {
			if err := stop(); err != nil {
				return err
			}
		}
		if k.M.Cycles() > maxCycles {
			return fmt.Errorf("kernel: cycle budget %d exhausted (%d processes still running)", maxCycles, k.readyCount())
		}
		if k.cfg.InstrHook != nil {
			k.cfg.InstrHook(cpu.R[arm.PC])
		}
		cpu.Step()
		if k.current >= 0 {
			k.procs[k.current].Stats.UserInstrs++
		}
		if exc, ok := cpu.TookException(); ok {
			if err := k.handleException(exc); err != nil {
				return err
			}
		}
	}
}

func (k *Kernel) readyCount() int { return k.ready }

// handleException is the HLE exception dispatcher: the CPU has performed
// architectural exception entry (banked LR/SPSR, mode switch, vector);
// the kernel handler runs here and returns to user code.
func (k *Kernel) handleException(exc arm.Exception) error {
	cpu := k.M.CPU
	switch exc {
	case arm.ExcIRQ:
		// Timer tick: pre-empt. LR_irq-4 is the resume address.
		k.Stats.TimerIRQs++
		if lat, ok := k.M.IRQLatency(); ok {
			k.Stats.SumIRQLatency += lat
			if lat > k.Stats.MaxIRQLatency {
				k.Stats.MaxIRQLatency = lat
			}
		}
		k.M.Timer.Ack()
		retPC := cpu.R[arm.LR] - 4
		retCPSR := cpu.SPSR()
		k.log(trace.EvTimer, k.currentPID(), "")
		k.preempt(retPC, retCPSR)
		return nil
	case arm.ExcSWI:
		retPC := cpu.R[arm.LR]
		retCPSR := cpu.SPSR()
		instr, fault := k.M.Bus.Read32(retPC-4, bus.Load)
		if fault != nil {
			return fmt.Errorf("kernel: cannot read SWI instruction: %v", fault)
		}
		return k.syscall(instr&0xFFFFFF, retPC, retCPSR)
	case arm.ExcUndefined:
		faultPC := cpu.R[arm.LR] - 4
		retCPSR := cpu.SPSR()
		return k.undefined(faultPC, retCPSR)
	case arm.ExcDataAbort:
		k.kill(k.procs[k.current], "data abort")
		return nil
	case arm.ExcPrefetchAbort:
		k.kill(k.procs[k.current], "prefetch abort")
		return nil
	default:
		return fmt.Errorf("kernel: unexpected exception %v", exc)
	}
}

func (k *Kernel) currentPID() uint32 {
	if k.current < 0 {
		return 0
	}
	return k.procs[k.current].PID
}

// preempt saves the running process and dispatches the next ready one. A
// lone runnable process just gets a fresh quantum.
func (k *Kernel) preempt(retPC, retCPSR uint32) {
	next := k.nextReady(k.current)
	if next == k.current {
		k.charge(k.cfg.Costs.ScheduleDecision)
		k.M.Timer.SetPeriod(k.cfg.Quantum)
		k.M.Timer.Ack()
		k.M.CPU.ReturnTo(retCPSR, retPC)
		return
	}
	k.saveCurrent(retPC, retCPSR)
	if next < 0 {
		k.current = -1
		return
	}
	k.dispatch(next)
}

// undefined handles the undefined-instruction trap: a Proteus exec
// instruction that missed both TLBs lands here for the CIS; anything else
// kills the process.
func (k *Kernel) undefined(faultPC, retCPSR uint32) error {
	p := k.procs[k.current]
	k.charge(k.cfg.Costs.FaultEntry)
	instr, fault := k.M.Bus.Read32(faultPC, bus.Load)
	if fault != nil {
		k.kill(p, "fault reading trapped instruction")
		return nil
	}
	// A Proteus exec is CDP on p1: bits 27:24 = 1110, bit 4 = 0, cp# = 1.
	if instr>>24&0xF != 0xE || instr&0x10 != 0 || instr>>8&0xF != 1 {
		k.kill(p, fmt.Sprintf("undefined instruction %#08x", instr))
		return nil
	}
	cid := instr>>5&7<<4 | instr>>20&0xF
	p.Stats.Faults++
	note := ""
	if k.tlog.Keeps() {
		note = fmt.Sprintf("cid=%d", cid)
	}
	k.log(trace.EvFault, p.PID, note)
	if k.cfg.MaxFaultsPerProc > 0 && p.Stats.Faults > k.cfg.MaxFaultsPerProc {
		k.kill(p, "fault storm")
		return nil
	}
	if !k.CIS.fault(p, cid) {
		k.kill(p, fmt.Sprintf("no registration for CID %d", cid))
		return nil
	}
	// Reissue the faulting instruction (§4.2: "reissue the application
	// from where it faulted").
	k.M.CPU.ReturnTo(retCPSR, faultPC)
	return nil
}

// syscall services an SWI.
func (k *Kernel) syscall(num, retPC, retCPSR uint32) error {
	p := k.procs[k.current]
	cpu := k.M.CPU
	k.Stats.Syscalls++
	k.charge(k.cfg.Costs.SyscallEntry)
	arg := func(i int) uint32 { return cpu.UserReg(i) }
	ret := func() {
		cpu.ReturnTo(retCPSR, retPC)
	}
	switch num {
	case SysExit:
		p.ExitCode = arg(0)
		k.exit(p, ProcExited)
		return nil
	case SysPutc:
		k.M.Console.Write8(0, byte(arg(0)))
		ret()
		return nil
	case SysYield:
		k.preempt(retPC, retCPSR)
		return nil
	case SysRegisterCI:
		ptr := arg(0)
		words := [3]uint32{}
		for i := range words {
			v, fault := k.M.Bus.Read32(ptr+uint32(i*4), bus.Load)
			if fault != nil {
				k.kill(p, "bad registration descriptor")
				return nil
			}
			words[i] = v
		}
		cid, imgIdx, softAddr := words[0], words[1], words[2]
		if cid > 127 || imgIdx >= uint32(len(p.images)) {
			k.kill(p, fmt.Sprintf("bad registration cid=%d img=%d", cid, imgIdx))
			return nil
		}
		p.registrations[cid] = &Registration{
			CID:      cid,
			Image:    p.images[imgIdx],
			SoftAddr: softAddr,
			owner:    p,
			resident: -1,
		}
		ret()
		return nil
	case SysGetPID:
		cpu.SetUserReg(0, p.PID)
		ret()
		return nil
	case SysPutDec:
		for _, ch := range fmt.Sprintf("%d", arg(0)) {
			k.M.Console.Write8(0, byte(ch))
		}
		ret()
		return nil
	case SysCycles:
		cpu.SetUserReg(0, uint32(k.M.Cycles()))
		ret()
		return nil
	case SysUnregister:
		cid := arg(0)
		if reg, ok := p.registrations[cid]; ok {
			if reg.resident >= 0 {
				k.CIS.evict(reg.resident)
			}
			key := core.IDTuple{PID: p.PID, CID: cid}
			k.M.RFU.TLB1.Remove(key)
			k.M.RFU.TLB2.Remove(key)
			delete(p.registrations, cid)
		}
		ret()
		return nil
	default:
		k.kill(p, fmt.Sprintf("bad syscall %d", num))
		return nil
	}
}

// exit terminates the current process and schedules the next one.
func (k *Kernel) exit(p *Process, state ProcState) {
	if p.State == ProcReady {
		k.ready--
	}
	p.State = state
	p.Stats.CompletionCycle = k.M.Cycles()
	k.CIS.releaseProcess(p)
	note := ""
	if k.tlog.Keeps() {
		note = fmt.Sprintf("code=%d", p.ExitCode)
	}
	k.log(trace.EvExit, p.PID, note)
	if k.cfg.OnProcExit != nil {
		k.cfg.OnProcExit(p)
	}
	next := k.nextReady(k.current)
	k.current = -1
	if next >= 0 {
		k.dispatch(next)
	}
}

// kill terminates a misbehaving process.
func (k *Kernel) kill(p *Process, why string) {
	k.Stats.Kills++
	k.log(trace.EvKill, p.PID, why)
	p.ExitCode = 0xFFFFFFFF
	k.exit(p, ProcKilled)
}

// findRegistration resolves a (PID, CID) tuple to its registration.
func (k *Kernel) findRegistration(pid, cid uint32) *Registration {
	if pid == 0 || int(pid) > len(k.procs) {
		return nil
	}
	return k.procs[pid-1].registrations[cid]
}

// Console returns everything processes printed.
func (k *Kernel) Console() string { return k.M.Console.String() }
