// Package bus models the ProteanARM on-chip memory system: a 32-bit
// little-endian bus with attachable regions (RAM and memory-mapped devices).
//
// The bus is deliberately minimal: the ProteanARM of the paper is an
// ARM7TDMI-class system-on-chip with single-cycle SRAM, so memory adds no
// wait states and the cycle cost of memory access is carried by the CPU
// cycle model (internal/arm).
package bus

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Access describes the kind of bus access, used for device side effects and
// abort reporting.
type Access int

// Access kinds.
const (
	Load Access = iota
	Store
	Fetch
)

func (a Access) String() string {
	switch a {
	case Load:
		return "load"
	case Store:
		return "store"
	case Fetch:
		return "fetch"
	default:
		return fmt.Sprintf("Access(%d)", int(a))
	}
}

// Fault describes a failed bus access. A nil *Fault means success.
type Fault struct {
	Addr   uint32
	Access Access
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("bus fault: %s at %#08x: %s", f.Access, f.Addr, f.Reason)
}

// Region is a span of the physical address space serviced by a handler.
// Handlers receive region-relative offsets.
type Region interface {
	// Size reports the number of bytes the region decodes.
	Size() uint32
	// Read8 and Write8 service byte accesses at a region-relative offset.
	// Wider accesses are assembled by the bus unless the region also
	// implements Word32Region.
	Read8(off uint32) (byte, bool)
	Write8(off uint32, v byte) bool
}

// Word32Region is an optional fast path for regions that service aligned
// 32-bit accesses natively (RAM and most devices).
type Word32Region interface {
	Region
	Read32(off uint32) (uint32, bool)
	Write32(off uint32, v uint32) bool
}

type mapping struct {
	base   uint32
	limit  uint32 // inclusive upper bound
	region Region
	// w32 is the region's optional fast-path interface, resolved once at
	// Map time so the per-access path never type-asserts.
	w32 Word32Region
}

// Bus is the system interconnect. It is not safe for concurrent use; the
// simulator is single-threaded per machine.
type Bus struct {
	maps []mapping

	// hot caches the most recently hit mapping: almost every access in a
	// running machine lands in RAM, so the common case is two compares
	// instead of a binary search.
	hot mapping

	// fetchSlot is the RAM table entry of the page at address fetchBase
	// that Fetch32 last read from, or noPage.
	fetchBase uint32
	fetchSlot **page
}

// noPage is the fetch slot of a bus with no cached page; it is never
// written, so it always reads nil.
var noPage *page

// New returns an empty bus.
func New() *Bus { return &Bus{fetchSlot: &noPage} }

// Map attaches region at base. Regions must not overlap.
func (b *Bus) Map(base uint32, r Region) error {
	size := r.Size()
	if size == 0 {
		return fmt.Errorf("bus: cannot map zero-sized region at %#08x", base)
	}
	limit := base + size - 1
	if limit < base {
		return fmt.Errorf("bus: region at %#08x size %#x wraps address space", base, size)
	}
	for _, m := range b.maps {
		if base <= m.limit && limit >= m.base {
			return fmt.Errorf("bus: region at %#08x..%#08x overlaps existing %#08x..%#08x",
				base, limit, m.base, m.limit)
		}
	}
	m := mapping{base: base, limit: limit, region: r}
	m.w32, _ = r.(Word32Region)
	b.maps = append(b.maps, m)
	sort.Slice(b.maps, func(i, j int) bool { return b.maps[i].base < b.maps[j].base })
	return nil
}

// MustMap is Map but panics on error; for wiring code where overlap is a
// programming error.
func (b *Bus) MustMap(base uint32, r Region) {
	if err := b.Map(base, r); err != nil {
		panic(err)
	}
}

func (b *Bus) find(addr uint32) (*mapping, bool) {
	// Fast path: the last mapping hit (regions never overlap, so a stale
	// hot entry can only miss, never mis-route). Returned by pointer —
	// the mapping struct is five words, too big to copy per access.
	h := &b.hot
	if h.region != nil && addr >= h.base && addr <= h.limit {
		return h, true
	}
	// Binary search over sorted, non-overlapping mappings.
	lo, hi := 0, len(b.maps)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		m := &b.maps[mid]
		switch {
		case addr < m.base:
			hi = mid - 1
		case addr > m.limit:
			lo = mid + 1
		default:
			b.hot = *m
			return h, true
		}
	}
	return nil, false
}

// Read8 reads one byte.
func (b *Bus) Read8(addr uint32, kind Access) (byte, *Fault) {
	m, ok := b.find(addr)
	if !ok {
		return 0, &Fault{addr, kind, "unmapped"}
	}
	v, ok := m.region.Read8(addr - m.base)
	if !ok {
		return 0, &Fault{addr, kind, "region rejected read"}
	}
	return v, nil
}

// Write8 writes one byte.
func (b *Bus) Write8(addr uint32, v byte) *Fault {
	m, ok := b.find(addr)
	if !ok {
		return &Fault{addr, Store, "unmapped"}
	}
	if !m.region.Write8(addr-m.base, v) {
		return &Fault{addr, Store, "region rejected write"}
	}
	return nil
}

// Read16 reads a little-endian halfword. addr must be halfword aligned;
// the CPU is responsible for ARM alignment behaviour.
func (b *Bus) Read16(addr uint32, kind Access) (uint16, *Fault) {
	lo, f := b.Read8(addr, kind)
	if f != nil {
		return 0, f
	}
	hi, f := b.Read8(addr+1, kind)
	if f != nil {
		return 0, f
	}
	return uint16(lo) | uint16(hi)<<8, nil
}

// Write16 writes a little-endian halfword.
func (b *Bus) Write16(addr uint32, v uint16) *Fault {
	if f := b.Write8(addr, byte(v)); f != nil {
		return f
	}
	return b.Write8(addr+1, byte(v>>8))
}

// Read32 reads a little-endian word. addr must be word aligned.
func (b *Bus) Read32(addr uint32, kind Access) (uint32, *Fault) {
	if m, ok := b.find(addr); ok {
		if m.w32 != nil && addr+3 <= m.limit {
			v, good := m.w32.Read32(addr - m.base)
			if !good {
				return 0, &Fault{addr, kind, "region rejected read"}
			}
			return v, nil
		}
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		bv, f := b.Read8(addr+i, kind)
		if f != nil {
			return 0, f
		}
		v |= uint32(bv) << (8 * i)
	}
	return v, nil
}

// Fetch32 reads an instruction word, like Read32(addr, Fetch). It keeps
// the RAM table entry of the page it last fetched from, so a fetch from
// that page skips the mapping lookup. Reading through the entry on every
// fetch keeps it coherent with stores and with a copy-on-write store
// replacing the page.
func (b *Bus) Fetch32(addr uint32) (uint32, *Fault) {
	if i := addr - b.fetchBase; i <= pageSize-4 {
		if p := *b.fetchSlot; p != nil {
			return binary.LittleEndian.Uint32(p[i:]), nil
		}
	}
	v, f := b.Read32(addr, Fetch)
	if f == nil {
		b.fetchBase, b.fetchSlot = b.pageSlot(addr)
	}
	return v, f
}

// pageSlot returns the address of the page holding addr and its RAM
// table entry, or noPage when addr is not in a RAM chunk that exists or
// its page is not wholly inside the region.
func (b *Bus) pageSlot(addr uint32) (uint32, **page) {
	if m, ok := b.find(addr); ok {
		if r, ok := m.region.(*RAM); ok {
			off := addr - m.base
			if e := r.entry(off); e != nil {
				return addr - off&pageMask, e
			}
		}
	}
	return 0, &noPage
}

// Write32 writes a little-endian word.
func (b *Bus) Write32(addr uint32, v uint32) *Fault {
	if m, ok := b.find(addr); ok {
		if m.w32 != nil && addr+3 <= m.limit {
			if !m.w32.Write32(addr-m.base, v) {
				return &Fault{addr, Store, "region rejected write"}
			}
			return nil
		}
	}
	for i := uint32(0); i < 4; i++ {
		if f := b.Write8(addr+i, byte(v>>(8*i))); f != nil {
			return f
		}
	}
	return nil
}

// LoadBytes copies data into memory starting at addr, for program loading.
func (b *Bus) LoadBytes(addr uint32, data []byte) error {
	for i, v := range data {
		if f := b.Write8(addr+uint32(i), v); f != nil {
			return f
		}
	}
	return nil
}
