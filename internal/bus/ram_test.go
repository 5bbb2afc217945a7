package bus

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// fuzzRAMSize spans two chunks and ends off a word boundary, so accesses
// cross page and chunk boundaries and straddle the region's end.
const fuzzRAMSize = chunkSize + 2*pageSize + 6

// fuzzAnchors are the offsets fuzz accesses cluster around; an op adds a
// signed byte to one of them.
var fuzzAnchors = []uint32{
	0, pageSize, 2 * pageSize, chunkSize - pageSize, chunkSize, chunkSize + pageSize,
	fuzzRAMSize - 4, fuzzRAMSize, 0xFFFFFFFF,
}

// flatRAM is the reference model: one RAM, a bus mapping it at 0 for the
// halfword accesses, and a flat byte slice.
type flatRAM struct {
	r    *RAM
	b    *Bus
	flat []byte
}

func newFlatRAM() *flatRAM {
	m := &flatRAM{r: NewRAM(fuzzRAMSize), b: New(), flat: make([]byte, fuzzRAMSize)}
	m.b.MustMap(0, m.r)
	return m
}

func (m *flatRAM) fits(off uint32, n int) bool {
	return uint64(off)+uint64(n) <= uint64(len(m.flat))
}

func (m *flatRAM) word(off uint32, n int) uint32 {
	var v uint32
	for k := n - 1; k >= 0; k-- {
		v = v<<8 | uint32(m.flat[off+uint32(k)])
	}
	return v
}

func (m *flatRAM) put(off uint32, n int, v uint32) {
	for k := 0; k < n; k++ {
		m.flat[off+uint32(k)] = byte(v >> (8 * k))
	}
}

// FuzzRAM runs random image loads, 8-, 16- and 32-bit accesses and
// instruction fetches against two RAMs and a flat byte slice per RAM. Both RAMs load one
// shared Image, so a store to either must reach neither the other RAM
// nor the image's pages.
func FuzzRAM(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 48; i++ {
		seed := make([]byte, 8+8*rng.Intn(64))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 8 {
			return
		}
		// The first eight bytes place and size the shared image.
		imgOff := fuzzAnchors[int(in[0])%(len(fuzzAnchors)-3)] + uint32(in[1])*16
		imgData := make([]byte, int(binary.LittleEndian.Uint16(in[2:]))%(3*pageSize))
		for i := range imgData {
			imgData[i] = byte(i*7) ^ in[4]
		}
		img := NewImage(imgOff, imgData)
		rams := [2]*flatRAM{newFlatRAM(), newFlatRAM()}
		for _, m := range rams {
			if m.r.LoadImage(img) != m.fits(imgOff, len(imgData)) {
				t.Fatalf("LoadImage(%#x, %d bytes) fit mismatch", imgOff, len(imgData))
			}
			if m.fits(imgOff, len(imgData)) {
				copy(m.flat[imgOff:], imgData)
			}
		}
		for in = in[8:]; len(in) >= 8; in = in[8:] {
			m := rams[in[0]>>7]
			off := fuzzAnchors[int(in[1])%len(fuzzAnchors)] + uint32(int32(int8(in[2])))
			v := binary.LittleEndian.Uint32(in[3:])
			switch in[0] % 10 {
			case 0:
				got, ok := m.r.Read8(off)
				if ok != m.fits(off, 1) || ok && uint32(got) != m.word(off, 1) {
					t.Fatalf("Read8(%#x) = %#x, %v", off, got, ok)
				}
			case 1:
				got, f := m.b.Read16(off&^1, Load)
				if (f == nil) != m.fits(off&^1, 2) || f == nil && uint32(got) != m.word(off&^1, 2) {
					t.Fatalf("Read16(%#x) = %#x, %v", off&^1, got, f)
				}
			case 2:
				got, ok := m.r.Read32(off)
				if ok != m.fits(off, 4) || ok && got != m.word(off, 4) {
					t.Fatalf("Read32(%#x) = %#x, %v", off, got, ok)
				}
			case 3:
				if m.r.Write8(off, byte(v)) != m.fits(off, 1) {
					t.Fatalf("Write8(%#x) fit mismatch", off)
				}
				if m.fits(off, 1) {
					m.put(off, 1, v)
				}
			case 4:
				f := m.b.Write16(off&^1, uint16(v))
				if (f == nil) != m.fits(off&^1, 2) {
					t.Fatalf("Write16(%#x): %v", off&^1, f)
				}
				if f == nil {
					m.put(off&^1, 2, v)
				}
			case 5:
				if m.r.Write32(off, v) != m.fits(off, 4) {
					t.Fatalf("Write32(%#x) fit mismatch", off)
				}
				if m.fits(off, 4) {
					m.put(off, 4, v)
				}
			case 6, 7:
				data := make([]byte, int(in[7])*int(in[6]%40))
				for i := range data {
					data[i] = byte(v) + byte(i)
				}
				ok := m.r.LoadImage(NewImage(off, data))
				if ok != m.fits(off, len(data)) {
					t.Fatalf("load of %d bytes at %#x fit mismatch", len(data), off)
				}
				if ok {
					copy(m.flat[off:], data)
				}
			case 8:
				if m.r.LoadImage(img) {
					copy(m.flat[imgOff:], imgData)
				}
			case 9:
				got, f := m.b.Fetch32(off &^ 3)
				if (f == nil) != m.fits(off&^3, 4) || f == nil && got != m.word(off&^3, 4) {
					t.Fatalf("Fetch32(%#x) = %#x, %v", off&^3, got, f)
				}
			}
		}
		var zero page
		for i, m := range rams {
			for off := uint32(0); off < fuzzRAMSize; off += pageSize {
				n := min(pageSize, fuzzRAMSize-off)
				got := zero[:n]
				if p := m.r.read(off); p != nil {
					got = p[:n]
				}
				if !bytes.Equal(got, m.flat[off:off+n]) {
					t.Fatalf("RAM %d page %#x differs from the flat model", i, off)
				}
			}
		}
		// The image's pages still hold exactly its bytes.
		for k, p := range img.pages {
			var want page
			base := imgOff&^pageMask + uint32(k)<<pageShift
			lo := max(base, imgOff)
			copy(want[lo&pageMask:], imgData[lo-imgOff:])
			if *p != want {
				t.Fatalf("image page %d changed after stores", k)
			}
		}
	})
}

// TestRAMImageCopyOnWrite: loading an image maps its pages without
// copying; the first store to a page copies that page only, and a second
// RAM loading the same image still reads the image's bytes.
func TestRAMImageCopyOnWrite(t *testing.T) {
	data := make([]byte, 2*pageSize)
	for i := range data {
		data[i] = byte(i + 1)
	}
	img := NewImage(chunkSize, data)
	a, b := NewRAM(4*chunkSize), NewRAM(4*chunkSize)
	if allocs := testing.AllocsPerRun(1, func() { ramSink = NewRAM(4 * chunkSize); ramSink.LoadImage(img) }); allocs != 3 {
		t.Errorf("NewRAM + LoadImage allocated %v times, want 3 (RAM, top level, chunk)", allocs)
	}
	if !a.LoadImage(img) || !b.LoadImage(img) {
		t.Fatal("LoadImage rejected")
	}
	if a.read(chunkSize) != img.pages[0] || b.read(chunkSize+pageSize) != img.pages[1] {
		t.Fatal("LoadImage copied pages instead of mapping them")
	}
	a.Write32(chunkSize+pageSize+8, 0xCAFEF00D)
	if a.read(chunkSize) != img.pages[0] || a.read(chunkSize+pageSize) == img.pages[1] {
		t.Fatal("a store copied the wrong page")
	}
	if v, _ := a.Read32(chunkSize + pageSize + 8); v != 0xCAFEF00D {
		t.Errorf("store read back %#x", v)
	}
	if v, _ := a.Read8(chunkSize + pageSize + 12); v != data[pageSize+12] {
		t.Errorf("copied page lost the image byte: %#x", v)
	}
	if v, _ := b.Read32(chunkSize + pageSize + 8); v != binary.LittleEndian.Uint32(data[pageSize+8:]) {
		t.Errorf("a store to one RAM reached the other: %#x", v)
	}
	// A page already written takes a copy of the image's bytes.
	c := NewRAM(4 * chunkSize)
	c.Write8(chunkSize+pageSize+pageMask, 0xEE)
	c.LoadImage(NewImage(chunkSize+pageSize+4, data[:8]))
	if v, _ := c.Read8(chunkSize + pageSize + pageMask); v != 0xEE {
		t.Errorf("LoadImage over a written page cleared byte %#x", v)
	}
	if v, _ := c.Read8(chunkSize + pageSize + 4); v != data[0] {
		t.Errorf("LoadImage over a written page: byte = %#x, want %#x", v, data[0])
	}
}

// TestFetchFollowsStores: a fetch through the cached page entry sees a
// store to that page, including the store that replaces a shared image
// page with a private copy, and a fetch past a region end still faults.
func TestFetchFollowsStores(t *testing.T) {
	b := New()
	r := NewRAM(2*chunkSize + 0x10)
	b.MustMap(0x1000, r)
	img := NewImage(chunkSize, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	r.LoadImage(img)
	addr := uint32(0x1000 + chunkSize)
	if v, f := b.Fetch32(addr + 4); f != nil || v != 0x08070605 {
		t.Fatalf("Fetch32 = %#x, %v", v, f)
	}
	b.Write32(addr+4, 0xE1A00000)
	if v, _ := b.Fetch32(addr + 4); v != 0xE1A00000 {
		t.Fatalf("fetch after a copy-on-write store = %#x", v)
	}
	if v, _ := b.Fetch32(addr); v != 0x04030201 {
		t.Fatalf("fetch of the copied page's other word = %#x", v)
	}
	b.Write8(addr, 0xFF)
	if v, _ := b.Fetch32(addr); v != 0x040302FF {
		t.Fatalf("fetch after a store to an owned page = %#x", v)
	}
	if *img.pages[0] != [pageSize]byte{1, 2, 3, 4, 5, 6, 7, 8} {
		t.Fatal("stores reached the image page")
	}
	// The partial page at the region end is never cached: its last word
	// fetches and the word past it faults.
	end := uint32(0x1000 + 2*chunkSize)
	r.Write32(2*chunkSize+0xC, 9)
	if v, f := b.Fetch32(end + 0xC); f != nil || v != 9 {
		t.Fatalf("Fetch32 of the last word = %#x, %v", v, f)
	}
	if _, f := b.Fetch32(end + 0x10); f == nil || f.Access != Fetch {
		t.Fatalf("Fetch32 past the region end: %v", f)
	}
}
