package core

import (
	"slices"
	"testing"

	"protean/internal/arm"
	"protean/internal/asm"
	"protean/internal/bus"
	"protean/internal/fabric"
)

// runOne clocks an execution for one cycle, reporting completion.
func runOne(e *pfuExec) bool {
	_, done := e.Run(1)
	return done
}

// addImage returns a behavioural test image: out = a + b after `latency`
// cycles, with the iteration counter as its only state word.
func addImage(latency uint32) *Image {
	return NewBehaviouralImage(BehaviouralSpec{
		Name:       "testadd",
		Spec:       fabric.DefaultPFUSpec,
		StateWords: 1,
		Step: func(st []uint32, a, b uint32, init bool) (uint32, bool) {
			if init {
				st[0] = 1
			} else {
				st[0]++
			}
			return a + b, st[0] >= latency
		},
	})
}

// testMachine wires a CPU, RAM and RFU together and loads a program.
type testMachine struct {
	cpu *arm.CPU
	rfu *RFU
	bus *bus.Bus
}

func newTestMachine(t *testing.T, src string) (*testMachine, *asm.Program) {
	t.Helper()
	prog, err := asm.Assemble(src, 0x8000)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	b := bus.New()
	b.MustMap(0, bus.NewRAM(0x40000))
	cpu := arm.New(b)
	rfu := New(DefaultConfig)
	cpu.Cop[1] = rfu
	if err := b.LoadBytes(prog.Origin, prog.Code); err != nil {
		t.Fatal(err)
	}
	cpu.SetCPSR(uint32(arm.ModeUsr))
	cpu.R[arm.PC] = prog.Origin
	cpu.R[arm.SP] = 0x30000
	return &testMachine{cpu: cpu, rfu: rfu, bus: b}, prog
}

func (m *testMachine) runTo(t *testing.T, stop uint32) {
	t.Helper()
	if reason := m.cpu.Run(stop, 1_000_000); reason != arm.StopPC {
		t.Fatalf("did not reach stop: %v (%s)", reason, m.cpu)
	}
}

const addProg = `
	mov r0, #100
	mov r1, #23
	mcr p1, 0, r0, c0, c0      ; RFU r0 = 100
	mcr p1, 0, r1, c1, c0      ; RFU r1 = 23
	cdp p1, 5, c2, c0, c1      ; custom instruction CID 5: c2 = c0 + c1
	mrc p1, 0, r2, c2, c0      ; r2 = RFU r2
	b done
done:
	nop
`

func TestHardwareDispatch(t *testing.T) {
	m, prog := newTestMachine(t, addProg)
	img := addImage(4)
	if _, err := m.rfu.LoadImage(2, img); err != nil {
		t.Fatal(err)
	}
	m.rfu.PID = 77
	m.rfu.TLB1.Insert(IDTuple{PID: 77, CID: 5}, 2)
	m.runTo(t, prog.Symbols["done"])
	if m.cpu.R[2] != 123 {
		t.Fatalf("custom add = %d, want 123", m.cpu.R[2])
	}
	if m.rfu.Stats.HWDispatches != 1 || m.rfu.Stats.Completions != 1 {
		t.Errorf("stats = %+v", m.rfu.Stats)
	}
	if m.rfu.Counter(2) != 1 {
		t.Errorf("usage counter = %d", m.rfu.Counter(2))
	}
	// Status register back to 1, ready for the next invocation.
	if !m.rfu.PFU(2).Status {
		t.Error("status register not set after completion")
	}
}

func TestDispatchLatencyCharged(t *testing.T) {
	m, prog := newTestMachine(t, addProg)
	img := addImage(4)
	m.rfu.LoadImage(0, img)
	m.rfu.TLB1.Insert(IDTuple{PID: 0, CID: 5}, 0)
	m.runTo(t, prog.Symbols["done"])
	// CDP cost = 1 (issue) + DispatchCycles (1) + 4 PFU cycles = 6, on top
	// of 2 movs (2), 2 MCRs (4), 1 MRC (3), landing before the branch.
	wantMin := uint64(2 + 4 + 6 + 3)
	if m.cpu.Cycles < wantMin {
		t.Errorf("cycles = %d, want at least %d", m.cpu.Cycles, wantMin)
	}
	if m.rfu.Stats.ExecCycles != 4 {
		t.Errorf("exec cycles = %d, want 4", m.rfu.Stats.ExecCycles)
	}
}

func TestDispatchFault(t *testing.T) {
	m, _ := newTestMachine(t, addProg)
	var faulted []IDTuple
	m.rfu.FaultHook = func(k IDTuple) { faulted = append(faulted, k) }
	m.rfu.PID = 9
	// No mappings: the CDP must raise the undefined-instruction trap.
	for i := 0; i < 8; i++ {
		m.cpu.Step()
		if exc, ok := m.cpu.TookException(); ok {
			if exc != arm.ExcUndefined {
				t.Fatalf("exception = %v", exc)
			}
			if len(faulted) != 1 || faulted[0] != (IDTuple{PID: 9, CID: 5}) {
				t.Fatalf("fault hook saw %v", faulted)
			}
			if m.rfu.Stats.Faults != 1 {
				t.Fatalf("fault count = %d", m.rfu.Stats.Faults)
			}
			return
		}
	}
	t.Fatal("no exception taken")
}

func TestStaleMappingFaults(t *testing.T) {
	m, _ := newTestMachine(t, addProg)
	// Mapping points at an empty PFU: must fault and self-clean.
	m.rfu.TLB1.Insert(IDTuple{PID: 0, CID: 5}, 3)
	for i := 0; i < 8; i++ {
		m.cpu.Step()
		if exc, ok := m.cpu.TookException(); ok {
			if exc != arm.ExcUndefined {
				t.Fatalf("exception = %v", exc)
			}
			if _, ok := m.rfu.TLB1.Lookup(IDTuple{PID: 0, CID: 5}); ok {
				t.Fatal("stale mapping not removed")
			}
			return
		}
	}
	t.Fatal("no exception taken")
}

const softProg = `
	mov r0, #40
	mov r1, #2
	mcr p1, 0, r0, c0, c0
	mcr p1, 0, r1, c1, c0
	cdp p1, 5, c2, c0, c1      ; dispatches to software
	mrc p1, 0, r2, c2, c0      ; read retired result
	b done

swalt:                         ; software alternative: result = a - b
	mrc p1, 1, r4, c0, c0      ; r4 = captured operand A
	mrc p1, 1, r5, c1, c0      ; r5 = captured operand B
	sub r6, r4, r5
	mcr p1, 1, r6, c2, c0      ; store result (retires to dest RFU reg)
	mov pc, lr
done:
	nop
`

func TestSoftwareDispatch(t *testing.T) {
	m, prog := newTestMachine(t, softProg)
	m.rfu.PID = 4
	m.rfu.TLB2.Insert(IDTuple{PID: 4, CID: 5}, prog.Symbols["swalt"])
	m.runTo(t, prog.Symbols["done"])
	if m.cpu.R[2] != 38 {
		t.Fatalf("soft-dispatched result = %d, want 38", m.cpu.R[2])
	}
	if m.rfu.Stats.SWDispatches != 1 {
		t.Errorf("stats = %+v", m.rfu.Stats)
	}
	// Capture registers invalidated by the result store.
	if m.rfu.Capture().Valid {
		t.Error("capture still valid after result store")
	}
}

func TestHardwarePreferredOverSoftware(t *testing.T) {
	// With both mappings installed, TLB1 wins (§4.2: hardware is the
	// preferred resolution).
	m, prog := newTestMachine(t, softProg)
	m.rfu.LoadImage(1, addImage(2))
	m.rfu.TLB1.Insert(IDTuple{PID: 0, CID: 5}, 1)
	m.rfu.TLB2.Insert(IDTuple{PID: 0, CID: 5}, prog.Symbols["swalt"])
	m.runTo(t, prog.Symbols["done"])
	if m.cpu.R[2] != 42 {
		t.Fatalf("result = %d, want hardware's 42", m.cpu.R[2])
	}
}

const longProg = `
	mov r0, #7
	mov r1, #9
	mcr p1, 0, r0, c0, c0
	mcr p1, 0, r1, c1, c0
	cdp p1, 1, c2, c0, c1
	mrc p1, 0, r2, c2, c0
	b done
done:
	nop
`

func TestLongInstructionInterruptResume(t *testing.T) {
	// A 64-cycle instruction with an IRQ arriving mid-flight: the CPU
	// aborts the CDP, takes the IRQ, the handler returns, the CDP is
	// reissued, and the status register makes it resume rather than
	// restart (§4.4).
	m, prog := newTestMachine(t, longProg)
	img := addImage(64)
	m.rfu.LoadImage(0, img)
	m.rfu.TLB1.Insert(IDTuple{PID: 0, CID: 1}, 0)

	// The IRQ line asserts the moment the PFU has done 20 cycles of work —
	// that is mid-CDP, because the line is polled every coprocessor tick.
	armed := true
	m.cpu.IRQLine = func() bool { return armed && m.rfu.Stats.ExecCycles >= 20 }
	handler, err := asm.Assemble("subs pc, lr, #4", 0x18)
	if err != nil {
		t.Fatal(err)
	}
	m.bus.LoadBytes(0x18, handler.Code)

	fired := 0
	cyclesAtIRQ := uint64(0)
	for m.cpu.R[arm.PC] != prog.Symbols["done"] {
		before := m.cpu.R[arm.PC]
		m.cpu.Step()
		if exc, ok := m.cpu.TookException(); ok {
			if exc != arm.ExcIRQ {
				t.Fatalf("unexpected exception %v at pc=%#x", exc, before)
			}
			fired++
			armed = false
			cyclesAtIRQ = m.rfu.Stats.ExecCycles
		}
		if m.cpu.Cycles > 10000 {
			t.Fatal("runaway")
		}
	}
	if fired != 1 {
		t.Fatalf("IRQ fired %d times", fired)
	}
	if m.cpu.R[2] != 16 {
		t.Fatalf("result = %d, want 16", m.cpu.R[2])
	}
	if m.rfu.Stats.Aborts != 1 || m.rfu.Stats.Completions != 1 {
		t.Errorf("stats = %+v", m.rfu.Stats)
	}
	// Total PFU work = 64 cycles + the cycles lost to re-execution... the
	// status register means NO cycles are lost: exactly 64 total.
	if m.rfu.Stats.ExecCycles != 64 {
		t.Errorf("exec cycles = %d, want exactly 64 (no restart)", m.rfu.Stats.ExecCycles)
	}
	if cyclesAtIRQ >= 64 {
		t.Errorf("IRQ should have interrupted mid-instruction (at %d)", cyclesAtIRQ)
	}
	// One completion counted despite the interrupt (§4.5).
	if m.rfu.Counter(0) != 1 {
		t.Errorf("usage counter = %d, want 1", m.rfu.Counter(0))
	}
}

func TestSwapOutRestoreMidInstruction(t *testing.T) {
	// Swap a circuit off the array halfway through an instruction and
	// restore it: the split configuration (§4.1) carries the state frames
	// and the RFU status bit, so execution completes correctly.
	rfu := New(DefaultConfig)
	img := addImage(10)
	if _, err := rfu.LoadImage(0, img); err != nil {
		t.Fatal(err)
	}
	exec := &pfuExec{r: rfu, pfu: 0, a: 5, b: 6, dst: 3}
	for i := 0; i < 4; i++ {
		if runOne(exec) {
			t.Fatal("finished early")
		}
	}
	sc := new(SwappedCircuit)
	stateBytes, err := rfu.SwapOut(0, sc)
	if err != nil {
		t.Fatal(err)
	}
	if stateBytes != 4 {
		t.Errorf("state readback = %d bytes", stateBytes)
	}
	if sc.Status {
		t.Error("mid-instruction status must be 0")
	}
	// Something else uses PFU 0 meanwhile.
	rfu.LoadImage(0, addImage(2))
	other := &pfuExec{r: rfu, pfu: 0, a: 1, b: 1, dst: 0}
	for !runOne(other) {
	}
	// Restore into a different PFU and finish.
	if _, err := rfu.Restore(2, sc); err != nil {
		t.Fatal(err)
	}
	exec2 := &pfuExec{r: rfu, pfu: 2, a: 5, b: 6, dst: 3}
	ticks := 0
	for !runOne(exec2) {
		ticks++
		if ticks > 20 {
			t.Fatal("did not finish")
		}
	}
	if rfu.Regs[3] != 11 {
		t.Fatalf("result = %d, want 11", rfu.Regs[3])
	}
	// 4 ticks before swap + 6 after = 10 total: resume, not restart.
	if ticks+1 != 6 {
		t.Errorf("post-restore ticks = %d, want 6", ticks+1)
	}
}

func TestPrivilegedOpsRejectedInUserMode(t *testing.T) {
	rfu := New(DefaultConfig)
	if rfu.MCR(OpPID, 0, 0, 0, 5, true) {
		t.Error("user-mode PID write accepted")
	}
	if _, ok := rfu.MRC(OpCounter, 0, 0, 0, true); ok {
		t.Error("user-mode counter read accepted")
	}
	if !rfu.MCR(OpPID, 0, 0, 0, 5, false) {
		t.Error("privileged PID write rejected")
	}
	if rfu.PID != 5 {
		t.Error("PID not written")
	}
}

func TestCounterReadClear(t *testing.T) {
	rfu := New(DefaultConfig)
	rfu.LoadImage(1, addImage(1))
	exec := &pfuExec{r: rfu, pfu: 1, a: 1, b: 2, dst: 0}
	for i := 0; i < 3; i++ {
		for !runOne(exec) {
		}
	}
	v, ok := rfu.MRC(OpCounter, 1, 0, 0, false)
	if !ok || v != 3 {
		t.Fatalf("counter = %d,%v", v, ok)
	}
	if !rfu.MCR(OpCounter, 1, 0, 0, 0, false) {
		t.Fatal("clear rejected")
	}
	if rfu.Counter(1) != 0 {
		t.Fatal("counter not cleared")
	}
}

func TestCaptureSaveRestore(t *testing.T) {
	rfu := New(DefaultConfig)
	rfu.SetCapture(CaptureState{A: 1, B: 2, Res: 3, Dst: 4, Valid: true})
	// Kernel-side save via coprocessor ops.
	var saved [4]uint32
	for i := uint32(0); i < 4; i++ {
		v, ok := rfu.MRC(OpCaptureSave, i, 0, 0, false)
		if !ok {
			t.Fatalf("save reg %d rejected", i)
		}
		saved[i] = v
	}
	rfu.SetCapture(CaptureState{})
	for i := uint32(0); i < 4; i++ {
		if !rfu.MCR(OpCaptureSave, i, 0, 0, saved[i], false) {
			t.Fatalf("restore reg %d rejected", i)
		}
	}
	got := rfu.Capture()
	want := CaptureState{A: 1, B: 2, Res: 3, Dst: 4, Valid: true}
	if got != want {
		t.Fatalf("capture = %+v, want %+v", got, want)
	}
}

func TestNestedSoftDispatchClobbersCapture(t *testing.T) {
	// §4.3: a software alternative that itself soft-dispatches loses the
	// capture registers — documented bad practice we reproduce faithfully.
	rfu := New(DefaultConfig)
	rfu.TLB2.Insert(IDTuple{PID: 0, CID: 1}, 0x1000)
	rfu.TLB2.Insert(IDTuple{PID: 0, CID: 2}, 0x2000)
	rfu.Regs[0], rfu.Regs[1] = 11, 22
	out := rfu.CDP(1, 3, 0, 1, 0, true)
	if out.Action != arm.CDPBranchLink || out.Addr != 0x1000 {
		t.Fatalf("outcome = %+v", out)
	}
	first := rfu.Capture()
	// Nested dispatch overwrites.
	rfu.Regs[0], rfu.Regs[1] = 33, 44
	rfu.CDP(2, 5, 0, 1, 0, true)
	second := rfu.Capture()
	if second.A != 33 || second.Dst != 5 {
		t.Fatalf("nested capture = %+v", second)
	}
	if first.A == second.A {
		t.Fatal("test is vacuous")
	}
}

func TestFabricImageThroughRFU(t *testing.T) {
	// A real gate-level circuit (the 16-cycle multiplier) dispatched
	// through the RFU end to end.
	img, err := NewFabricImage("seqmul16", fabric.SeqMul16(), fabric.DefaultPFUSpec)
	if err != nil {
		t.Fatal(err)
	}
	if img.StaticBytes != fabric.StaticBytes(fabric.DefaultPFUSpec) {
		t.Errorf("static size = %d", img.StaticBytes)
	}
	rfu := New(DefaultConfig)
	if _, err := rfu.LoadImage(0, img); err != nil {
		t.Fatal(err)
	}
	rfu.Regs[0], rfu.Regs[1] = 123, 456
	exec := &pfuExec{r: rfu, pfu: 0, a: rfu.Regs[0], b: rfu.Regs[1], dst: 2}
	ticks := 0
	for !runOne(exec) {
		ticks++
		if ticks > 64 {
			t.Fatal("no completion")
		}
	}
	if rfu.Regs[2] != 123*456 {
		t.Fatalf("product = %d", rfu.Regs[2])
	}
	if ticks+1 != fabric.SeqMul16Cycles {
		t.Errorf("latency = %d", ticks+1)
	}
}

// TestBehaviouralStateRoundTrip swaps a behavioural circuit out two
// cycles into an instruction and back in on another PFU: the state words
// the model resumes from are the ones it was evicted with, and the
// instruction finishes in the cycles left, as an unswapped twin does.
func TestBehaviouralStateRoundTrip(t *testing.T) {
	img := addImage(8)
	rfu := New(DefaultConfig)
	for _, i := range []int{0, 3} {
		if _, err := rfu.LoadImage(i, img); err != nil {
			t.Fatal(err)
		}
	}
	exec := &pfuExec{r: rfu, pfu: 0, a: 1, b: 2, dst: 4}
	twin := &pfuExec{r: rfu, pfu: 3, a: 1, b: 2, dst: 5}
	for _, e := range []*pfuExec{exec, twin} {
		if _, done := e.Run(2); done {
			t.Fatal("finished early")
		}
	}
	words := func(i int) []uint32 { return rfu.pfus[i].model.(*behaviouralModel).state }
	evicted := slices.Clone(words(0))
	sc := new(SwappedCircuit)
	if _, err := rfu.SwapOut(0, sc); err != nil {
		t.Fatal(err)
	}
	if _, err := rfu.Restore(1, sc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(words(1), evicted) || !slices.Equal(words(1), words(3)) {
		t.Fatalf("restored state words %v, evicted %v, twin %v", words(1), evicted, words(3))
	}
	exec.pfu = 1
	n, done := exec.Run(100)
	tn, tdone := twin.Run(100)
	if !done || !tdone || n != tn || n != 6 || rfu.Regs[4] != rfu.Regs[5] {
		t.Fatalf("restored run %d cycles (done %v), twin %d (done %v); want 6 each", n, done, tn, tdone)
	}
}

// TestBehaviouralStateLengthCheck: a behavioural circuit's state frame
// group is 4 bytes per state word, and that is what a swap charges each
// way.
func TestBehaviouralStateLengthCheck(t *testing.T) {
	img := NewBehaviouralImage(BehaviouralSpec{
		Name: "threewords", Spec: fabric.DefaultPFUSpec, StateWords: 3,
		Step: func(st []uint32, a, b uint32, init bool) (uint32, bool) { return a, true },
	})
	if img.StateBytes != 12 {
		t.Fatalf("StateBytes = %d, want 12", img.StateBytes)
	}
	rfu := New(DefaultConfig)
	static, err := rfu.LoadImage(0, img)
	if err != nil {
		t.Fatal(err)
	}
	sc := new(SwappedCircuit)
	saved, err := rfu.SwapOut(0, sc)
	if err != nil || saved != 12 {
		t.Fatalf("SwapOut read back %d bytes (%v), want 12", saved, err)
	}
	if loaded, err := rfu.Restore(0, sc); err != nil || loaded != static+12 {
		t.Fatalf("Restore loaded %d bytes (%v), want %d", loaded, err, static+12)
	}
}

func TestRFUResetClearsEverything(t *testing.T) {
	rfu := New(DefaultConfig)
	rfu.LoadImage(0, addImage(1))
	exec := &pfuExec{r: rfu, pfu: 0, a: 1, b: 1, dst: 0}
	for !runOne(exec) {
	}
	rfu.Reset()
	for i := 0; i < rfu.NumPFUs(); i++ {
		info := rfu.PFU(i)
		if info.Loaded || info.Counter != 0 || !info.Status {
			t.Fatalf("PFU %d after reset: %+v", i, info)
		}
	}
}

func TestRegisterFileMoves(t *testing.T) {
	m, prog := newTestMachine(t, `
	mov r0, #55
	mcr p1, 0, r0, c7, c0
	mrc p1, 0, r3, c7, c0
	b done
done:
	nop
`)
	m.runTo(t, prog.Symbols["done"])
	if m.cpu.R[3] != 55 {
		t.Fatalf("register file move = %d", m.cpu.R[3])
	}
	if m.rfu.Regs[7] != 55 {
		t.Fatalf("RFU reg = %d", m.rfu.Regs[7])
	}
}

// TestRestoreReusesEvictedModel: Restore hands the instance SwapOut
// evicted back to the array instead of stamping a new one, and a second
// Restore of the same SwappedCircuit is an error that leaves its target
// PFU empty, so no two restored circuits alias one instance.
func TestRestoreReusesEvictedModel(t *testing.T) {
	rfu := New(DefaultConfig)
	if _, err := rfu.LoadImage(0, addImage(10)); err != nil {
		t.Fatal(err)
	}
	evicted := rfu.pfus[0].model
	exec := &pfuExec{r: rfu, pfu: 0, a: 5, b: 6, dst: 3}
	for i := 0; i < 4; i++ {
		runOne(exec)
	}
	sc := new(SwappedCircuit)
	if _, err := rfu.SwapOut(0, sc); err != nil {
		t.Fatal(err)
	}
	if _, err := rfu.Restore(1, sc); err != nil {
		t.Fatal(err)
	}
	if rfu.pfus[1].model != evicted {
		t.Fatal("Restore stamped a fresh instance instead of reusing the evicted one")
	}
	if _, err := rfu.Restore(2, sc); err == nil {
		t.Fatal("a second Restore of one SwappedCircuit succeeded")
	}
	if rfu.pfus[2].model != nil {
		t.Fatal("the refused second Restore configured its PFU")
	}
	// PFU 1 holds the saved mid-instruction state — four cycles in — and
	// finishes in 6 more cycles.
	if st := rfu.pfus[1].model.(*behaviouralModel).state; st[0] != 4 {
		t.Fatalf("PFU 1 holds state word %d, want the saved 4", st[0])
	}
	// The consumed slot takes the next eviction and restores it once.
	if _, err := rfu.SwapOut(1, sc); err != nil {
		t.Fatal(err)
	}
	if _, err := rfu.Restore(2, sc); err != nil || rfu.pfus[2].model != evicted {
		t.Fatalf("restore from the reused slot: %v", err)
	}
	e := &pfuExec{r: rfu, pfu: 2, a: 5, b: 6, dst: 3}
	if n, done := e.Run(100); !done || n != 6 || rfu.Regs[3] != 11 {
		t.Fatalf("PFU 2: %d cycles, done %v, result %d; want 6, true, 11", n, done, rfu.Regs[3])
	}
}
