package machine

import (
	"testing"

	"protean/internal/arm"
	"protean/internal/asm"
	"protean/internal/bus"
)

func TestBootAndRun(t *testing.T) {
	m := New(Config{})
	prog, err := asm.Assemble(`
	mov r0, #7
	add r0, r0, r0
hang:
	b hang
`, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog.Image()); err != nil {
		t.Fatal(err)
	}
	m.CPU.SetCPSR(uint32(arm.ModeSys) | arm.FlagI | arm.FlagF)
	m.CPU.R[arm.PC] = prog.Origin
	for i := 0; i < 10; i++ {
		m.Step()
	}
	if m.CPU.R[0] != 14 {
		t.Fatalf("r0 = %d", m.CPU.R[0])
	}
}

func TestTimerIRQDuringExecution(t *testing.T) {
	m := New(Config{})
	prog, _ := asm.Assemble("spin: b spin", 0x8000)
	m.LoadProgram(prog.Image())
	m.CPU.SetCPSR(uint32(arm.ModeSys)) // IRQs enabled
	m.CPU.R[arm.PC] = prog.Origin
	m.Timer.SetPeriod(50)
	m.Timer.Enable(true)
	for i := 0; i < 100; i++ {
		m.Step()
		if exc, ok := m.CPU.TookException(); ok {
			if exc != arm.ExcIRQ {
				t.Fatalf("exception %v", exc)
			}
			if m.Cycles() < 50 {
				t.Fatalf("IRQ too early at %d", m.Cycles())
			}
			return
		}
	}
	t.Fatal("timer IRQ never arrived")
}

func TestStallAdvancesDevices(t *testing.T) {
	m := New(Config{})
	m.Timer.SetPeriod(1000)
	m.Timer.Enable(true)
	m.Stall(1500)
	if m.Cycles() != 1500 {
		t.Fatalf("cycles = %d", m.Cycles())
	}
	if !m.Timer.IRQ() {
		t.Fatal("timer did not expire during stall")
	}
}

func TestStallForConfigBandwidth(t *testing.T) {
	m := New(Config{ConfigBytesPerCycle: 4})
	cycles := m.StallForConfig(54086)
	if cycles != (54086+3)/4 {
		t.Fatalf("config stall = %d", cycles)
	}
	if m.Cycles() != uint64(cycles) {
		t.Fatalf("machine time = %d", m.Cycles())
	}
	// Default bandwidth is 1 byte/cycle.
	m2 := New(Config{})
	if got := m2.StallForConfig(100); got != 100 {
		t.Fatalf("default bandwidth stall = %d", got)
	}
}

func TestLoadProgramBounds(t *testing.T) {
	m := New(Config{RAMBytes: 0x1000})
	err := m.LoadProgram(bus.NewImage(0xF00, make([]byte, 0x200)))
	if want := "machine: program at 0xf00 (512 bytes) exceeds RAM"; err == nil || err.Error() != want {
		t.Fatalf("out-of-RAM load: %v, want %q", err, want)
	}
	if err := m.LoadProgram(bus.NewImage(0xFFFFFFF0, make([]byte, 0x20))); err == nil {
		t.Fatal("wrapping load accepted")
	}
	if err := m.LoadProgram(bus.NewImage(0x100, make([]byte, 0x200))); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(bus.NewImage(0xE00, make([]byte, 0x200))); err != nil {
		t.Fatalf("load ending at the last RAM byte: %v", err)
	}

	// A program spanning pages reads back through the bus.
	m = New(Config{})
	code := make([]byte, 0x2100)
	for i := range code {
		code[i] = byte(i * 13)
	}
	if err := m.LoadProgram(bus.NewImage(0x8F80, code)); err != nil {
		t.Fatal(err)
	}
	for i, want := range code {
		if got, f := m.Bus.Read8(0x8F80+uint32(i), bus.Load); f != nil || got != want {
			t.Fatalf("byte %#x = %#x, %v; want %#x", i, got, f, want)
		}
	}
}

func TestMMIOVisibleToCPU(t *testing.T) {
	m := New(Config{})
	prog, _ := asm.Assemble(`
	ldr r0, =0xF0000100
	mov r1, #'A'
	str r1, [r0]
done:
	b done
`, 0x8000)
	m.LoadProgram(prog.Image())
	m.CPU.SetCPSR(uint32(arm.ModeSys) | arm.FlagI | arm.FlagF)
	m.CPU.R[arm.PC] = prog.Origin
	for i := 0; i < 10; i++ {
		m.Step()
	}
	if m.Console.String() != "A" {
		t.Fatalf("console = %q", m.Console.String())
	}
}

func TestRFUAttachedAsCop1(t *testing.T) {
	m := New(Config{})
	prog, _ := asm.Assemble(`
	mov r0, #9
	mcr p1, 0, r0, c3, c0
	mrc p1, 0, r1, c3, c0
done:
	b done
`, 0x8000)
	m.LoadProgram(prog.Image())
	m.CPU.SetCPSR(uint32(arm.ModeSys) | arm.FlagI | arm.FlagF)
	m.CPU.R[arm.PC] = prog.Origin
	for i := 0; i < 10; i++ {
		m.Step()
	}
	if m.CPU.R[1] != 9 || m.RFU.Regs[3] != 9 {
		t.Fatalf("RFU regfile move failed: r1=%d regs[3]=%d", m.CPU.R[1], m.RFU.Regs[3])
	}
}

var _ = bus.Load // keep the bus import for documentation references

// TestPrivilegedRFUEncodings executes the documented privileged
// coprocessor encodings from supervisor-mode ARM code: PID register access
// (MCR/MRC p1, 2), usage-counter read/clear (p1, 3) and capture-register
// save/restore (p1, 4). The POrSCHE kernel uses the Go API for speed, but
// the hardware interface must work as specified for a native kernel.
func TestPrivilegedRFUEncodings(t *testing.T) {
	m := New(Config{})
	prog, err := asm.Assemble(`
	; PID register
	mov r0, #7
	mcr p1, 2, r0, c0, c0      ; PID = 7
	mrc p1, 2, r1, c0, c0      ; r1 = PID

	; capture save/restore: write A/B/result/dst+valid, read back
	mov r0, #17
	mcr p1, 4, r0, c0, c0      ; capture A
	mov r0, #34
	mcr p1, 4, r0, c1, c0      ; capture B
	mov r0, #51
	mcr p1, 4, r0, c2, c0      ; capture result
	mov r0, #0x100             ; valid bit
	orr r0, r0, #5             ; dst=5
	mcr p1, 4, r0, c3, c0
	mrc p1, 4, r2, c0, c0
	mrc p1, 4, r3, c3, c0

	; usage counter of PFU 0: read then clear
	mrc p1, 3, r4, c0, c0
	mov r0, #0
	mcr p1, 3, r0, c0, c0
	mrc p1, 3, r5, c0, c0
done:
	b done
`, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	m.LoadProgram(prog.Image())
	m.CPU.SetCPSR(uint32(arm.ModeSvc) | arm.FlagI | arm.FlagF) // privileged
	m.CPU.R[arm.PC] = prog.Origin
	for i := 0; i < 40; i++ {
		m.Step()
		if exc, ok := m.CPU.TookException(); ok {
			t.Fatalf("unexpected exception %v at step %d", exc, i)
		}
	}
	if m.RFU.PID != 7 || m.CPU.R[1] != 7 {
		t.Errorf("PID path: rfu=%d r1=%d", m.RFU.PID, m.CPU.R[1])
	}
	cap := m.RFU.Capture()
	if cap.A != 17 || cap.B != 34 || cap.Res != 51 || cap.Dst != 5 || !cap.Valid {
		t.Errorf("capture = %+v", cap)
	}
	if m.CPU.R[2] != 17 {
		t.Errorf("capture A readback = %d", m.CPU.R[2])
	}
	if m.CPU.R[3] != 0x105 {
		t.Errorf("capture dst readback = %#x", m.CPU.R[3])
	}
	if m.CPU.R[5] != 0 {
		t.Errorf("counter clear readback = %d", m.CPU.R[5])
	}
}

// TestUserModePrivilegedEncodingsTrap runs the same encodings in user mode
// and expects the undefined-instruction trap — the protection §2 requires.
func TestUserModePrivilegedEncodingsTrap(t *testing.T) {
	for _, src := range []string{
		"mcr p1, 2, r0, c0, c0", // PID write
		"mrc p1, 3, r0, c0, c0", // counter read
		"mcr p1, 4, r0, c0, c0", // capture save
	} {
		m := New(Config{})
		prog, err := asm.Assemble(src, 0x8000)
		if err != nil {
			t.Fatal(err)
		}
		m.LoadProgram(prog.Image())
		m.CPU.SetCPSR(uint32(arm.ModeUsr) | arm.FlagI | arm.FlagF)
		m.CPU.R[arm.PC] = prog.Origin
		m.Step()
		exc, ok := m.CPU.TookException()
		if !ok || exc != arm.ExcUndefined {
			t.Errorf("%q in user mode: exception = %v, %v", src, exc, ok)
		}
	}
}
