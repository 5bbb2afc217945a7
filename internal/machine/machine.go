// Package machine assembles the ProteanARM demonstrator platform (§5 of
// the paper): the ARM7TDMI-class core, the Proteus RFU as on-chip
// coprocessor p1, RAM, an interval timer (the pre-emption source for the
// POrSCHE scheduler) and a console, all on one bus.
package machine

import (
	"fmt"

	"protean/internal/arm"
	"protean/internal/bus"
	"protean/internal/core"
)

// Physical memory map.
const (
	// RAMBase is where system RAM starts (the exception vectors live at 0).
	RAMBase = 0x00000000
	// MMIOBase is the device window.
	MMIOBase    = 0xF0000000
	TimerBase   = MMIOBase + 0x000
	ConsoleBase = MMIOBase + 0x100
)

// Config sizes the machine.
type Config struct {
	// RAMBytes is the system RAM size; 0 means the 16 MB default.
	RAMBytes uint32
	// RFU configures the reconfigurable function unit.
	RFU core.Config
	// ConfigBytesPerCycle is the configuration-port bandwidth used to
	// convert bitstream traffic into stall cycles; 0 means 1 byte/cycle
	// (a Virtex-class 8-bit configuration port at core clock).
	ConfigBytesPerCycle uint32
}

// Machine is one ProteanARM system instance.
type Machine struct {
	Bus     *bus.Bus
	CPU     *arm.CPU
	RFU     *core.RFU
	Timer   *bus.Timer
	Console *bus.Console
	RAM     *bus.RAM

	configBPC      uint32
	irqAssertedAt  uint64
	irqAssertValid bool
}

// New builds and wires a machine.
func New(cfg Config) *Machine {
	ram := cfg.RAMBytes
	if ram == 0 {
		ram = 16 << 20
	}
	bpc := cfg.ConfigBytesPerCycle
	if bpc == 0 {
		bpc = 1
	}
	m := &Machine{
		Bus:       bus.New(),
		Timer:     bus.NewTimer(),
		Console:   bus.NewConsole(),
		RAM:       bus.NewRAM(ram),
		configBPC: bpc,
	}
	m.Bus.MustMap(RAMBase, m.RAM)
	m.Bus.MustMap(TimerBase, m.Timer)
	m.Bus.MustMap(ConsoleBase, m.Console)
	m.CPU = arm.New(m.Bus)
	m.RFU = core.New(cfg.RFU)
	m.CPU.Cop[1] = m.RFU
	m.CPU.OnTick = m.tickDevices
	m.CPU.IRQLine = m.Timer.IRQ
	m.CPU.CyclesToIRQ = m.Timer.CyclesToIRQ
	return m
}

// IRQLatency reports the cycles between the most recent timer assertion
// and now — the interrupt service latency when called at IRQ entry. ok is
// false if no assertion has been observed.
func (m *Machine) IRQLatency() (uint64, bool) {
	if !m.irqAssertValid {
		return 0, false
	}
	return m.CPU.Cycles - m.irqAssertedAt, true
}

// Cycles reports elapsed machine cycles.
func (m *Machine) Cycles() uint64 { return m.CPU.Cycles }

// Step executes one CPU instruction (or interrupt entry).
func (m *Machine) Step() uint32 { return m.CPU.Step() }

// Stall advances time without executing instructions: the cost of kernel
// work and configuration-port DMA. Devices keep ticking, so a scheduling
// timer can expire during a long configuration load — exactly the
// interaction the paper's 1 ms-quantum runs suffer from.
func (m *Machine) Stall(cycles uint32) {
	m.CPU.Cycles += uint64(cycles)
	m.tickDevices(cycles)
}

// tickDevices advances the timer by n cycles that have already reached
// CPU.Cycles, recording the cycle at which its interrupt line rises.
func (m *Machine) tickDevices(n uint32) {
	was := m.Timer.IRQ()
	m.Timer.Tick(uint64(n))
	if !was && m.Timer.IRQ() {
		m.irqAssertedAt = m.CPU.Cycles
		m.irqAssertValid = true
	}
}

// StallForConfig charges the configuration-port time for moving n bytes
// and reports the cycles consumed.
func (m *Machine) StallForConfig(nBytes int) uint32 {
	cycles := (uint32(nBytes) + m.configBPC - 1) / m.configBPC
	m.Stall(cycles)
	return cycles
}

// LoadProgram loads a program image into RAM, sharing its pages until
// the program stores to one (bus.RAM.LoadImage).
func (m *Machine) LoadProgram(img *bus.Image) error {
	if !m.RAM.LoadImage(img) {
		return fmt.Errorf("machine: program at %#x (%d bytes) exceeds RAM", img.Offset(), img.Size())
	}
	return nil
}
