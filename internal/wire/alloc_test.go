//go:build !race

package wire

import (
	"testing"

	"protean"
)

// TestEncodeMessageAllocs pins the encoder at one allocation per frame:
// the payload, sized by the plan's size pass before the encode pass.
func TestEncodeMessageAllocs(t *testing.T) {
	exp := uint32(7)
	msgs := []Msg{
		ResultOK{Job: 1, Fleet: sampleFleet(&exp)},
		Event{Job: 9, Ev: protean.Event{
			Kind: protean.EventProcessExit, Label: "echo.0", PID: 2, Cycle: 1 << 33, OK: true, Message: "exit",
		}},
	}
	for _, m := range msgs {
		var payload []byte
		if n := testing.AllocsPerRun(100, func() { payload = EncodeMessage(1, m) }); n != 1 {
			t.Errorf("EncodeMessage(%T): %v allocations, want 1", m, n)
		}
		if len(payload) != cap(payload) {
			t.Errorf("EncodeMessage(%T): payload len %d, cap %d: the size pass disagrees with the encoder", m, len(payload), cap(payload))
		}
	}
}

// TestDecodeMessageAllocs pins DecodeMessage of the sample ResultOK:
// one allocation per slice, pointer and non-empty string, plus the
// message itself. The per-element slice growth this replaced took 53.
func TestDecodeMessageAllocs(t *testing.T) {
	exp := uint32(7)
	payload := EncodeMessage(1, ResultOK{Job: 1, Fleet: sampleFleet(&exp)})
	n := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeMessage(payload); err != nil {
			t.Fatal(err)
		}
	})
	if n != 40 {
		t.Errorf("DecodeMessage(ResultOK): %v allocations, want 40", n)
	}
}
