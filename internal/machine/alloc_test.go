//go:build !race

package machine

import (
	"testing"

	"protean/internal/asm"
)

var machineSink *Machine

// TestNewLoadAllocs pins what a fresh machine costs in guest memory. New
// sizes the RAM's top-level table once, loading a one-page program
// allocates only its chunk, since the page stays the program image's,
// and the first store to that page allocates the page's copy.
func TestNewLoadAllocs(t *testing.T) {
	prog, err := asm.Assemble("mov r0, #1\nswi 0", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	img := prog.Image()
	load := func() {
		machineSink = New(Config{})
		if err := machineSink.LoadProgram(img); err != nil {
			t.Fatal(err)
		}
	}
	fresh := testing.AllocsPerRun(20, func() { machineSink = New(Config{}) })
	loaded := testing.AllocsPerRun(20, load)
	stored := testing.AllocsPerRun(20, func() {
		load()
		machineSink.RAM.Write32(prog.Origin, 0)
	})
	if loaded-fresh != 1 || stored-fresh != 2 {
		t.Errorf("New allocated %v times, New + LoadProgram %v and a store to the program %v; want 1 and 2 more than New",
			fresh, loaded, stored)
	}
}
