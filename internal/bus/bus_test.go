package bus

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRAMReadWrite(t *testing.T) {
	b := New()
	b.MustMap(0x1000, NewRAM(0x100))
	if f := b.Write32(0x1000, 0xDEADBEEF); f != nil {
		t.Fatal(f)
	}
	v, f := b.Read32(0x1000, Load)
	if f != nil || v != 0xDEADBEEF {
		t.Fatalf("read %#x, %v", v, f)
	}
	// Byte lanes are little-endian.
	b8, _ := b.Read8(0x1000, Load)
	if b8 != 0xEF {
		t.Errorf("byte 0 = %#x", b8)
	}
	b8, _ = b.Read8(0x1003, Load)
	if b8 != 0xDE {
		t.Errorf("byte 3 = %#x", b8)
	}
	// Halfword access.
	h, _ := b.Read16(0x1002, Load)
	if h != 0xDEAD {
		t.Errorf("half = %#x", h)
	}
	if f := b.Write16(0x1004, 0x1234); f != nil {
		t.Fatal(f)
	}
	h, _ = b.Read16(0x1004, Load)
	if h != 0x1234 {
		t.Errorf("half rt = %#x", h)
	}
}

func TestUnmappedFaults(t *testing.T) {
	b := New()
	b.MustMap(0x1000, NewRAM(0x100))
	if _, f := b.Read32(0x2000, Load); f == nil {
		t.Error("unmapped read did not fault")
	}
	if f := b.Write8(0xFFFFFFFF, 1); f == nil {
		t.Error("unmapped write did not fault")
	}
	if _, f := b.Read32(0x10FE, Fetch); f == nil {
		t.Error("read straddling the end of a region did not fault")
	}
	// Fault formatting mentions the access and address.
	_, f := b.Read8(0x2000, Fetch)
	if f == nil || f.Access != Fetch || f.Addr != 0x2000 {
		t.Errorf("fault = %+v", f)
	}
	if f.Error() == "" {
		t.Error("empty fault message")
	}
}

func TestOverlapRejected(t *testing.T) {
	b := New()
	b.MustMap(0x1000, NewRAM(0x100))
	if err := b.Map(0x1080, NewRAM(0x100)); err == nil {
		t.Fatal("overlapping map accepted")
	}
	if err := b.Map(0x0F81, NewRAM(0x100)); err == nil {
		t.Fatal("overlapping map accepted")
	}
	if err := b.Map(0x1100, NewRAM(0x100)); err != nil {
		t.Fatalf("adjacent map rejected: %v", err)
	}
}

func TestZeroSizeAndWrapRejected(t *testing.T) {
	b := New()
	if err := b.Map(0, NewRAM(0)); err == nil {
		t.Error("zero-size region accepted")
	}
	if err := b.Map(0xFFFFFF00, NewRAM(0x200)); err == nil {
		t.Error("wrapping region accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	b := New()
	b.MustMap(0, NewRAM(0x10000))
	f := func(addr uint16, v uint32) bool {
		a := uint32(addr) &^ 3
		if fl := b.Write32(a, v); fl != nil {
			return false
		}
		got, fl := b.Read32(a, Load)
		return fl == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoadReadBytes(t *testing.T) {
	b := New()
	b.MustMap(0x100, NewRAM(0x100))
	data := []byte{1, 2, 3, 4, 5}
	if err := b.LoadBytes(0x110, data); err != nil {
		t.Fatal(err)
	}
	for i, want := range data {
		got, f := b.Read8(0x110+uint32(i), Load)
		if f != nil || got != want {
			t.Fatalf("byte %d = %d, %v", i, got, f)
		}
	}
	if err := b.LoadBytes(0x1FE, data); err == nil {
		t.Error("overflowing load did not fail")
	}
}

var ramSink *RAM

// TestRAMAllocs pins the table's allocations: NewRAM allocates the RAM
// and its top level, and a first write its chunk and page.
func TestRAMAllocs(t *testing.T) {
	fresh := testing.AllocsPerRun(20, func() { ramSink = NewRAM(16 << 20) })
	written := testing.AllocsPerRun(20, func() {
		ramSink = NewRAM(16 << 20)
		ramSink.Write8(0x5000, 1)
	})
	if fresh != 2 || written != 4 {
		t.Errorf("NewRAM allocated %v times and NewRAM + one write %v, want 2 and 4", fresh, written)
	}
}

// allocated counts the chunks and pages a RAM has materialised.
func (r *RAM) allocated() (chunks, pages int) {
	for _, c := range r.chunks {
		if c == nil {
			continue
		}
		chunks++
		for _, p := range c.pages {
			if p != nil {
				pages++
			}
		}
	}
	return chunks, pages
}

func TestRAMUntouchedReadsZero(t *testing.T) {
	r := NewRAM(16 << 20)
	if len(r.chunks) != 16 {
		t.Fatalf("a 16 MiB region has %d chunks, want 16", len(r.chunks))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for off := uint32(0); off < r.Size(); off += 0x10001 {
			if v, ok := r.Read32(off &^ 3); !ok || v != 0 {
				t.Fatalf("Read32(%#x) = %#x, %v", off&^3, v, ok)
			}
			if v, ok := r.Read8(off); !ok || v != 0 {
				t.Fatalf("Read8(%#x) = %#x, %v", off, v, ok)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("reads of untouched pages allocated %v times", allocs)
	}
	if c, p := r.allocated(); c != 0 || p != 0 {
		t.Fatalf("reads materialised %d chunks and %d pages", c, p)
	}
	r.Write8(0x5000, 1)
	if c, p := r.allocated(); c != 1 || p != 1 || r.read(0x5000) == nil {
		t.Fatalf("%d chunks and %d pages after one write to page 5", c, p)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Write32(0x5ffc, 2) }); allocs != 0 {
		t.Fatalf("a write to an owned page allocated %v times", allocs)
	}
	// Untouched pages in a materialised chunk still read as zero.
	if v, ok := r.Read32(0x6000); !ok || v != 0 {
		t.Fatalf("Read32(0x6000) = %#x, %v", v, ok)
	}
	if v, ok := r.Read8(0x5001); !ok || v != 0 {
		t.Fatalf("Read8(0x5001) = %#x, %v", v, ok)
	}
	if c, p := r.allocated(); c != 1 || p != 1 {
		t.Fatalf("reads grew the table to %d chunks and %d pages", c, p)
	}
}

func TestRAMWordAcrossPageBoundary(t *testing.T) {
	for off := uint32(pageSize - 3); off < pageSize; off++ {
		r := NewRAM(2 * pageSize)
		if !r.Write32(off, 0x11223344) {
			t.Fatalf("Write32(%#x) rejected", off)
		}
		for k, want := range []byte{0x44, 0x33, 0x22, 0x11} {
			if got, _ := r.Read8(off + uint32(k)); got != want {
				t.Errorf("off %#x: byte %d = %#x, want %#x", off, k, got, want)
			}
		}
		r.Write8(off+1, 0xAB)
		if v, ok := r.Read32(off); !ok || v != 0x1122AB44 {
			t.Errorf("Read32(%#x) = %#x, %v", off, v, ok)
		}
		if r.read(0) == nil || r.read(pageSize) == nil {
			t.Errorf("off %#x: straddling write did not reach both pages", off)
		}
	}
}

func TestRAMLoad(t *testing.T) {
	r := NewRAM(4 * pageSize)
	data := make([]byte, 2*pageSize+10)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	if !r.LoadImage(NewImage(pageSize-5, data)) {
		t.Fatal("Load spanning three pages rejected")
	}
	for i, want := range data {
		if got, _ := r.Read8(pageSize - 5 + uint32(i)); got != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got, want)
		}
	}
	if !r.LoadImage(NewImage(r.Size()-4, data[:4])) || !r.LoadImage(NewImage(r.Size(), nil)) {
		t.Error("Load ending exactly at the region end rejected")
	}
	if r.LoadImage(NewImage(r.Size()-3, data[:4])) {
		t.Error("Load past the region end accepted")
	}
	if r.LoadImage(NewImage(0xFFFFFFFE, data[:4])) {
		t.Error("wrapping Load accepted")
	}
	if p := r.read(3 * pageSize); p[pageMask-3] != data[0] || p[pageMask-2] != data[1] {
		t.Error("rejected Load wrote into the region")
	}
}

func TestRAMOddSizeFaultsAtSize(t *testing.T) {
	r := NewRAM(0x100)
	if _, ok := r.Read8(0xFF); !ok {
		t.Error("Read8 at the last byte rejected")
	}
	if !r.Write8(0xFF, 1) {
		t.Fatal("Write8 at the last byte rejected")
	}
	if c, p := r.allocated(); c != 1 || p != 1 {
		t.Fatalf("%d chunks and %d pages after writing the last byte of a 0x100-byte region", c, p)
	}
	if _, ok := r.Read8(0x100); ok {
		t.Error("Read8 at size accepted")
	}
	if r.Write8(0x100, 1) {
		t.Error("Write8 at size accepted")
	}
	if _, ok := r.Read32(0xFC); !ok {
		t.Error("Read32 of the last word rejected")
	}
	if _, ok := r.Read32(0xFD); ok {
		t.Error("Read32 straddling size accepted")
	}
	if r.Write32(0xFD, 1) {
		t.Error("Write32 straddling size accepted")
	}
	b := New()
	b.MustMap(0x1000, r)
	if _, f := b.Read8(0x1100, Load); f == nil {
		t.Error("bus read at region end did not fault")
	}
}

// TestRAMMatchesFlatModel drives random byte and word accesses against a
// flat byte-slice model; offsets cluster around page boundaries and the
// region end so the straddle and fault paths are exercised.
func TestRAMMatchesFlatModel(t *testing.T) {
	const size = 3*pageSize + 0x10
	type op struct {
		Kind  uint8
		Near  uint8
		Delta int8
		V     uint32
	}
	f := func(ops []op) bool {
		r := NewRAM(size)
		flat := make([]byte, size)
		for _, o := range ops {
			off := uint32(o.Near%4)*pageSize + uint32(int32(o.Delta))
			if o.Near%4 == 3 {
				off = size + uint32(int32(o.Delta)) // around the region end
			}
			inRange := func(n uint32) bool { return off+n-1 >= off && off+n-1 < size }
			switch o.Kind % 4 {
			case 0:
				v, ok := r.Read8(off)
				if ok != inRange(1) || (ok && v != flat[off]) {
					return false
				}
			case 1:
				if r.Write8(off, byte(o.V)) != inRange(1) {
					return false
				}
				if inRange(1) {
					flat[off] = byte(o.V)
				}
			case 2:
				v, ok := r.Read32(off)
				if ok != inRange(4) {
					return false
				}
				if ok && v != uint32(flat[off])|uint32(flat[off+1])<<8|uint32(flat[off+2])<<16|uint32(flat[off+3])<<24 {
					return false
				}
			case 3:
				if r.Write32(off, o.V) != inRange(4) {
					return false
				}
				if inRange(4) {
					for k := uint32(0); k < 4; k++ {
						flat[off+k] = byte(o.V >> (8 * k))
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTimerExpiry(t *testing.T) {
	tm := NewTimer()
	tm.SetPeriod(100)
	tm.Enable(true)
	tm.Tick(99)
	if tm.IRQ() {
		t.Fatal("early IRQ")
	}
	tm.Tick(1)
	if !tm.IRQ() {
		t.Fatal("no IRQ at expiry")
	}
	tm.Ack()
	if tm.IRQ() {
		t.Fatal("ack did not clear")
	}
	// Multiple periods in one tick still assert once and count expiries.
	tm.Tick(250)
	if !tm.IRQ() || tm.Expiries != 3 {
		t.Fatalf("expiries = %d irq=%v", tm.Expiries, tm.IRQ())
	}
}

func TestTimerDisabled(t *testing.T) {
	tm := NewTimer()
	tm.SetPeriod(10)
	tm.Tick(100)
	if tm.IRQ() {
		t.Fatal("disabled timer fired")
	}
}

func TestTimerMMIO(t *testing.T) {
	b := New()
	tm := NewTimer()
	b.MustMap(0xF000, tm)
	b.Write32(0xF000+TimerRegLoad, 50)
	b.Write32(0xF000+TimerRegCtrl, 1)
	tm.Tick(60)
	v, _ := b.Read32(0xF000+TimerRegPending, Load)
	if v != 1 {
		t.Fatal("pending not visible via MMIO")
	}
	b.Write32(0xF000+TimerRegIntAck, 1)
	v, _ = b.Read32(0xF000+TimerRegPending, Load)
	if v != 0 {
		t.Fatal("ack via MMIO failed")
	}
	p, _ := b.Read32(0xF000+TimerRegLoad, Load)
	if p != 50 {
		t.Fatalf("period readback = %d", p)
	}
}

func TestConsoleCapture(t *testing.T) {
	b := New()
	c := NewConsole()
	b.MustMap(0xF100, c)
	for _, ch := range []byte("hi!") {
		b.Write32(0xF100+ConsoleRegPut, uint32(ch))
	}
	if c.String() != "hi!" {
		t.Fatalf("console = %q", c.String())
	}
	v, _ := b.Read32(0xF100+ConsoleRegStat, Load)
	if v != 1 {
		t.Fatal("console not ready")
	}
	c.Reset()
	if c.String() != "" {
		t.Fatal("reset did not clear")
	}
}

// TestTimerCyclesToIRQ: CyclesToIRQ is the exact Tick count after which
// the line rises — never when the timer cannot expire, 0 while it is
// pending, and the countdown otherwise, including a Tick(n) that lands
// exactly on the expiry.
func TestTimerCyclesToIRQ(t *testing.T) {
	tm := NewTimer()
	tm.SetPeriod(10)
	if got := tm.CyclesToIRQ(); got != math.MaxUint64 {
		t.Fatalf("disabled timer: CyclesToIRQ = %d, want never", got)
	}
	tm.Enable(true)
	tm.SetPeriod(0)
	tm.Tick(1000)
	if got := tm.CyclesToIRQ(); got != math.MaxUint64 || tm.IRQ() {
		t.Fatalf("period 0: CyclesToIRQ = %d, IRQ %v; want never", got, tm.IRQ())
	}
	tm.SetPeriod(10)
	tm.Tick(3)
	n := tm.CyclesToIRQ()
	if n != 7 {
		t.Fatalf("CyclesToIRQ = %d after 3 of 10 cycles, want 7", n)
	}
	tm.Tick(n - 1)
	if tm.IRQ() || tm.CyclesToIRQ() != 1 {
		t.Fatalf("one cycle early: IRQ %v, CyclesToIRQ %d", tm.IRQ(), tm.CyclesToIRQ())
	}
	tm.Tick(1)
	if !tm.IRQ() || tm.Expiries != 1 {
		t.Fatalf("Tick landing on the expiry: IRQ %v, expiries %d", tm.IRQ(), tm.Expiries)
	}
	if got := tm.CyclesToIRQ(); got != 0 {
		t.Fatalf("pending: CyclesToIRQ = %d, want 0", got)
	}
	tm.Tick(25) // expiries continue while pending
	if got := tm.CyclesToIRQ(); got != 0 || tm.Expiries != 3 {
		t.Fatalf("still pending: CyclesToIRQ = %d, expiries %d", got, tm.Expiries)
	}
	tm.Ack()
	if got := tm.CyclesToIRQ(); got != 5 {
		t.Fatalf("acknowledged 5 cycles before the next expiry: CyclesToIRQ = %d", got)
	}
	tm.Enable(false)
	if got := tm.CyclesToIRQ(); got != math.MaxUint64 {
		t.Fatalf("disabled again: CyclesToIRQ = %d, want never", got)
	}
}
