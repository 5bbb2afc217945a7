package bus

import (
	"bytes"
	"math"
)

// Device register offsets for the Timer region.
const (
	TimerRegLoad    = 0x0 // period in cycles (write), current period (read)
	TimerRegValue   = 0x4 // cycles until next expiry (read only)
	TimerRegCtrl    = 0x8 // bit0 = enable
	TimerRegIntAck  = 0xC // write any value to acknowledge the interrupt
	TimerRegPending = 0xC // read: 1 if interrupt pending
	timerSize       = 0x10
)

// Timer is a down-counting interval timer that raises a level-triggered
// interrupt each time the period elapses. It drives the pre-emptive
// scheduler of the POrSCHE kernel.
type Timer struct {
	period  uint32
	value   uint64
	enable  bool
	pending bool

	// Expiries counts total expirations, for statistics.
	Expiries uint64
}

// NewTimer returns a disabled timer.
func NewTimer() *Timer { return &Timer{} }

// Size implements Region.
func (t *Timer) Size() uint32 { return timerSize }

// Tick advances the timer by n cycles.
func (t *Timer) Tick(n uint64) {
	if !t.enable || t.period == 0 {
		return
	}
	for n > 0 {
		if t.value > n {
			t.value -= n
			return
		}
		n -= t.value
		t.value = uint64(t.period)
		t.pending = true
		t.Expiries++
	}
}

// CyclesToIRQ reports how many cycles of Tick it takes for the interrupt
// line to next rise: 0 while it is asserted (pending until acknowledged),
// ^uint64(0) when the timer cannot expire (disabled, or period 0).
func (t *Timer) CyclesToIRQ() uint64 {
	switch {
	case t.pending:
		return 0
	case !t.enable || t.period == 0:
		return math.MaxUint64
	}
	return max(t.value, 1) // a zero countdown expires on the next cycle
}

// IRQ reports whether the timer interrupt line is asserted.
func (t *Timer) IRQ() bool { return t.pending }

// Ack clears the pending interrupt.
func (t *Timer) Ack() { t.pending = false }

// SetPeriod programs the period and restarts the countdown.
func (t *Timer) SetPeriod(cycles uint32) {
	t.period = cycles
	t.value = uint64(cycles)
}

// Enable turns the timer on or off.
func (t *Timer) Enable(on bool) {
	t.enable = on
	if on && t.value == 0 {
		t.value = uint64(t.period)
	}
}

// Read8 implements Region via word registers.
func (t *Timer) Read8(off uint32) (byte, bool) {
	v, ok := t.Read32(off &^ 3)
	if !ok {
		return 0, false
	}
	return byte(v >> (8 * (off & 3))), true
}

// Write8 implements Region. Byte writes to device registers write the whole
// register with the byte value, which is sufficient for the kernel's use.
func (t *Timer) Write8(off uint32, v byte) bool {
	return t.Write32(off&^3, uint32(v))
}

// Read32 implements Word32Region.
func (t *Timer) Read32(off uint32) (uint32, bool) {
	switch off {
	case TimerRegLoad:
		return t.period, true
	case TimerRegValue:
		return uint32(t.value), true
	case TimerRegCtrl:
		if t.enable {
			return 1, true
		}
		return 0, true
	case TimerRegPending:
		if t.pending {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// Write32 implements Word32Region.
func (t *Timer) Write32(off uint32, v uint32) bool {
	switch off {
	case TimerRegLoad:
		t.SetPeriod(v)
		return true
	case TimerRegCtrl:
		t.Enable(v&1 != 0)
		return true
	case TimerRegIntAck:
		t.Ack()
		return true
	}
	return false
}

// Console register offsets.
const (
	ConsoleRegPut  = 0x0 // write: emit low byte
	ConsoleRegStat = 0x4 // read: always 1 (ready)
	consoleSize    = 0x8
)

// Console is a write-only character device capturing program output.
type Console struct {
	buf bytes.Buffer
}

// NewConsole returns an empty console.
func NewConsole() *Console { return &Console{} }

// Size implements Region.
func (c *Console) Size() uint32 { return consoleSize }

// Read8 implements Region.
func (c *Console) Read8(off uint32) (byte, bool) {
	if off&^3 == ConsoleRegStat {
		return 1, true
	}
	return 0, false
}

// Write8 implements Region.
func (c *Console) Write8(off uint32, v byte) bool {
	if off&^3 == ConsoleRegPut {
		c.buf.WriteByte(v)
		return true
	}
	return false
}

// Read32 implements Word32Region.
func (c *Console) Read32(off uint32) (uint32, bool) {
	v, ok := c.Read8(off)
	return uint32(v), ok
}

// Write32 implements Word32Region.
func (c *Console) Write32(off uint32, v uint32) bool {
	return c.Write8(off, byte(v))
}

// String returns everything written so far.
func (c *Console) String() string { return c.buf.String() }

// Reset discards captured output.
func (c *Console) Reset() { c.buf.Reset() }
