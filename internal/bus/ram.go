package bus

import "encoding/binary"

// Page and chunk geometry. A chunk spans one megabyte, one kernel process
// region, so a process's code, data and stack pages share one chunk.
const (
	pageShift  = 12
	pageSize   = 1 << pageShift
	pageMask   = pageSize - 1
	chunkShift = 20
	chunkSize  = 1 << chunkShift
	chunkPages = 1 << (chunkShift - pageShift)
)

type page = [pageSize]byte

// chunk maps chunkSize bytes of a RAM. A nil page reads as zero.
type chunk struct {
	pages [chunkPages]*page
	// shared has bit i set while pages[i] belongs to an Image: reads use
	// it in place, and the first store replaces it with a private copy.
	shared [chunkPages / 64]uint64
}

// own gives page i of the chunk a private page, a zero page or a copy of
// the shared image page it replaces, and returns it.
func (c *chunk) own(i uint32) *page {
	p := new(page)
	if src := c.pages[i]; src != nil {
		*p = *src
		c.shared[i/64] &^= 1 << (i % 64)
	}
	c.pages[i] = p
	return p
}

// RAM is a byte-addressable memory region backed by a two-level table of
// lazily allocated pages, so a large region costs only the chunks and
// pages a program writes. A loaded Image's pages are mapped, not copied,
// and copied on their first store. The zero value is unusable; use
// NewRAM.
type RAM struct {
	chunks []*chunk
	size   uint32
}

// NewRAM returns a zero-filled RAM region of size bytes.
func NewRAM(size uint32) *RAM {
	return &RAM{chunks: make([]*chunk, (uint64(size)+chunkSize-1)>>chunkShift), size: size}
}

// Size reports the region size in bytes.
func (r *RAM) Size() uint32 { return r.size }

// page returns the private page holding off, allocating its chunk and the
// page, or copying a shared image page, on the first store to it. off
// must be below the region size.
func (r *RAM) page(off uint32) *page {
	c, i := r.slot(off)
	p := c.pages[i]
	if p == nil || c.shared[i/64]&(1<<(i%64)) != 0 {
		p = c.own(i)
	}
	return p
}

// slot returns the chunk holding off, allocating it on first use, and
// the index of off's page in it. off must be below the region size.
func (r *RAM) slot(off uint32) (*chunk, uint32) {
	c := r.chunks[off>>chunkShift]
	if c == nil {
		c = new(chunk)
		r.chunks[off>>chunkShift] = c
	}
	return c, off >> pageShift & (chunkPages - 1)
}

// read returns the page holding off, which may be a shared image page, or
// nil when it was never written or loaded. off must be below the region
// size.
func (r *RAM) read(off uint32) *page {
	if c := r.chunks[off>>chunkShift]; c != nil {
		return c.pages[off>>pageShift&(chunkPages-1)]
	}
	return nil
}

// entry returns the table entry of the page holding off, or nil when its
// chunk was never written or the page is not wholly inside the region.
func (r *RAM) entry(off uint32) **page {
	if off|pageMask >= r.size {
		return nil
	}
	if c := r.chunks[off>>chunkShift]; c != nil {
		return &c.pages[off>>pageShift&(chunkPages-1)]
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

// LoadImage copies img into the region at the image's offset, for
// program loading. A page the region has never written maps the image's
// page read-only instead, to be copied on its first store. It reports
// false, loading nothing, when the image does not fit.
func (r *RAM) LoadImage(img *Image) bool {
	if uint64(img.off)+uint64(img.size) > uint64(r.size) {
		return false
	}
	end := img.off + img.size
	for k, src := range img.pages {
		base := img.off&^pageMask + uint32(k)<<pageShift
		if r.read(base) != nil {
			lo, hi := max(base, img.off)&pageMask, uint32(pageSize)
			if end-base < pageSize {
				hi = end - base
			}
			copy(r.page(base)[lo:hi], src[lo:hi])
			continue
		}
		c, i := r.slot(base)
		c.pages[i] = src
		c.shared[i/64] |= 1 << (i % 64)
	}
	return true
}

// Image is a read-only memory image cut into RAM pages, built once and
// loaded into any number of RAMs, which share its pages until a store
// copies one (RAM.LoadImage). An Image is immutable and safe for
// concurrent use.
type Image struct {
	off, size uint32
	// pages[k] is the k-th page the image touches, counted from the page
	// holding off; bytes outside [off, off+size) are zero.
	pages []*page
}

// NewImage cuts data, to be loaded at region offset off, into pages. It
// copies data, so the caller may reuse it.
func NewImage(off uint32, data []byte) *Image {
	img := &Image{off: off, size: uint32(len(data))}
	for i := 0; i < len(data); {
		p := new(page)
		i += copy(p[(off+uint32(i))&pageMask:], data[i:])
		img.pages = append(img.pages, p)
	}
	return img
}

// Offset reports the region offset the image loads at.
func (img *Image) Offset() uint32 { return img.off }

// Size reports the image length in bytes.
func (img *Image) Size() uint32 { return img.size }
