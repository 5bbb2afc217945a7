package machine

import (
	"fmt"
	"testing"

	"protean/internal/arm"
	"protean/internal/asm"
	"protean/internal/core"
	"protean/internal/fabric"
)

// burstRun is what one machine observed while running a single
// alphablend custom instruction with a timer interrupt in flight.
type burstRun struct {
	Result      uint32
	IRQs        int
	IRQLatency  []uint64 // at each IRQ entry, or at the end when none is taken
	Expiries    uint64
	Cycles      uint64
	Stats       core.Stats
	FinalStatus bool
}

// runAlphaWithIRQ runs `cdp` on the gate-level alphablend circuit with
// the timer set to assert at the end of fabric cycle irqAt (the
// instruction spends two issue cycles first). perCycle unwires
// CyclesToIRQ, so the core clocks the instruction one Run(1) at a time;
// otherwise a fresh issue whose runs reach K cycles takes the burst.
func runAlphaWithIRQ(t *testing.T, img *core.Image, irqAt uint64, masked, atomic, perCycle bool) burstRun {
	t.Helper()
	m := New(Config{})
	prog, err := asm.Assemble(`
	ldr r0, =0x80FF2040
	ldr r1, =0x11335577
	mcr p1, 0, r0, c0, c0
	mcr p1, 0, r1, c1, c0
issue:
	cdp p1, 1, c2, c0, c1
	mrc p1, 0, r2, c2, c0
done:
	b done
`, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	// The IRQ handler acknowledges the timer and returns to reissue.
	handler, err := asm.Assemble(`
	ldr r12, =0xF000000C
	str r12, [r12]
	subs pc, lr, #4
`, 0x18)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog.Image()); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(handler.Image()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RFU.LoadImage(0, img); err != nil {
		t.Fatal(err)
	}
	m.RFU.TLB1.Insert(core.IDTuple{PID: 0, CID: 1}, 0)
	m.CPU.AtomicCDP = atomic
	if perCycle {
		m.CPU.CyclesToIRQ = nil
	}
	cpsr := uint32(arm.ModeSys)
	if masked {
		cpsr |= arm.FlagI
	}
	m.CPU.SetCPSR(cpsr)
	m.CPU.R[arm.PC] = prog.Origin
	for m.CPU.R[arm.PC] != prog.Symbols["issue"] {
		m.Step()
	}
	m.Timer.SetPeriod(uint32(2 + irqAt))
	m.Timer.Enable(true)
	var r burstRun
	for steps := 0; steps < 40; steps++ { // ends spinning at done
		m.Step()
		if exc, ok := m.CPU.TookException(); ok {
			if exc != arm.ExcIRQ {
				t.Fatalf("exception %v", exc)
			}
			lat, _ := m.IRQLatency()
			r.IRQs++
			r.IRQLatency = append(r.IRQLatency, lat)
			m.Timer.Enable(false) // one interrupt per run
		}
	}
	if r.IRQs == 0 {
		lat, _ := m.IRQLatency()
		r.IRQLatency = append(r.IRQLatency, lat)
	}
	r.Result = m.CPU.R[2]
	r.Expiries = m.Timer.Expiries
	r.Cycles = m.Cycles()
	r.Stats = m.RFU.Stats
	r.FinalStatus = m.RFU.PFU(0).Status
	return r
}

// TestBurstIRQExact: clocking a custom instruction in runs bounded by
// Timer.CyclesToIRQ (a whole-instruction burst when the interrupt is far
// enough off) observes exactly what per-cycle Run(1) clocking observes,
// for an interrupt asserting at every cycle 1..K+1 of the instruction,
// taken, masked, or held off by AtomicCDP: the result, IRQ latency,
// timer expiries, machine cycles and RFU counters.
func TestBurstIRQExact(t *testing.T) {
	img, err := core.NewFabricImage("alphablend", fabric.AlphaBlend(), fabric.DefaultPFUSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := fabric.RefAlphaBlend(0x80FF2040, 0x11335577)
	k := uint64(8)
	aborted := 0
	for irqAt := uint64(1); irqAt <= k+1; irqAt++ {
		for _, mode := range []struct {
			name           string
			masked, atomic bool
		}{{"taken", false, false}, {"masked", true, false}, {"atomic", false, true}} {
			name := fmt.Sprintf("IRQ at cycle %d, %s", irqAt, mode.name)
			burst := runAlphaWithIRQ(t, img, irqAt, mode.masked, mode.atomic, false)
			step := runAlphaWithIRQ(t, img, irqAt, mode.masked, mode.atomic, true)
			if fmt.Sprint(burst) != fmt.Sprint(step) {
				t.Fatalf("%s:\nbursting  %+v\nper-cycle %+v", name, burst, step)
			}
			if burst.Result != want || burst.Stats.Completions != 1 || burst.Stats.ExecCycles != k {
				t.Fatalf("%s: %+v, want result %#x after one %d-cycle instruction", name, burst, want, k)
			}
			if mode.masked && burst.IRQs != 0 || !mode.masked && burst.IRQs != 1 {
				t.Fatalf("%s: %d interrupts taken", name, burst.IRQs)
			}
			aborted += int(burst.Stats.Aborts)
		}
	}
	if aborted != int(k-1) {
		t.Fatalf("%d aborted instructions, want one per IRQ at cycles 1..K-1", aborted)
	}
}
