package bus

import (
	"encoding/binary"
	"slices"
)

// RAM pages are allocated on first write; an untouched page reads as zero.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// RAM is a byte-addressable memory region backed by a table of lazily
// allocated pages, so a large region costs only the pages a program
// writes. The table itself grows to the highest page written; a page
// past its end reads as zero, like a nil one. The zero value is
// unusable; use NewRAM.
type RAM struct {
	pages []*[pageSize]byte
	size  uint32
}

// NewRAM returns a zero-filled RAM region of size bytes.
func NewRAM(size uint32) *RAM {
	return &RAM{size: size}
}

// Size reports the region size in bytes.
func (r *RAM) Size() uint32 { return r.size }

// page returns the page holding off, allocating it, and growing the
// table to reach it, on first use.
func (r *RAM) page(off uint32) *[pageSize]byte {
	i := int(off >> pageShift)
	if i >= len(r.pages) {
		r.pages = slices.Grow(r.pages, i+1-len(r.pages))[:i+1]
	}
	p := r.pages[i]
	if p == nil {
		p = new([pageSize]byte)
		r.pages[i] = p
	}
	return p
}

// read returns the page holding off, or nil when it was never written.
func (r *RAM) read(off uint32) *[pageSize]byte {
	if i := int(off >> pageShift); i < len(r.pages) {
		return r.pages[i]
	}
	return nil
}

// Read8 implements Region.
func (r *RAM) Read8(off uint32) (byte, bool) {
	if off >= r.size {
		return 0, false
	}
	if p := r.read(off); p != nil {
		return p[off&pageMask], true
	}
	return 0, true
}

// Write8 implements Region.
func (r *RAM) Write8(off uint32, v byte) bool {
	if off >= r.size {
		return false
	}
	r.page(off)[off&pageMask] = v
	return true
}

// Read32 implements Word32Region. A word straddling two pages takes the
// byte path.
func (r *RAM) Read32(off uint32) (uint32, bool) {
	if off+3 >= r.size || off+3 < off {
		return 0, false
	}
	i := off & pageMask
	if i > pageSize-4 {
		var v uint32
		for k := uint32(0); k < 4; k++ {
			b, _ := r.Read8(off + k)
			v |= uint32(b) << (8 * k)
		}
		return v, true
	}
	if p := r.read(off); p != nil {
		return binary.LittleEndian.Uint32(p[i:]), true
	}
	return 0, true
}

// Write32 implements Word32Region. A word straddling two pages takes the
// byte path.
func (r *RAM) Write32(off uint32, v uint32) bool {
	if off+3 >= r.size || off+3 < off {
		return false
	}
	i := off & pageMask
	if i > pageSize-4 {
		for k := uint32(0); k < 4; k++ {
			r.Write8(off+k, byte(v>>(8*k)))
		}
		return true
	}
	binary.LittleEndian.PutUint32(r.page(off)[i:], v)
	return true
}

// Load copies data into the region starting at off, for program loading.
// It reports false, copying nothing, when data does not fit.
func (r *RAM) Load(off uint32, data []byte) bool {
	if uint64(off)+uint64(len(data)) > uint64(r.size) {
		return false
	}
	for len(data) > 0 {
		n := copy(r.page(off)[off&pageMask:], data)
		data = data[n:]
		off += uint32(n)
	}
	return true
}
