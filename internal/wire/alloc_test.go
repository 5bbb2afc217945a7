//go:build !race

package wire

import (
	"testing"

	"protean"
)

// TestEncodeMessageAllocs pins the encoder at one allocation per frame:
// the payload, sized by the plan's size pass before the encode pass. The
// reference table comes from a pool, so a message allocates none,
// whether it holds a few pointees, a few shared ones or 288 distinct
// ones.
func TestEncodeMessageAllocs(t *testing.T) {
	exp := uint32(7)
	msgs := []Msg{
		ResultOK{Job: 1, Fleet: sampleFleet(&exp)},
		ResultOK{Job: 2, Fleet: shareFleet()},
		ResultOK{Job: 3, Fleet: unshare(shareFleet())},
		Event{Job: 9, Ev: protean.Event{
			Kind: protean.EventProcessExit, Label: "echo.0", PID: 2, Cycle: 1 << 33, Code: 7, OK: true,
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

// TestDecodeMessageAllocs pins DecodeMessage of the sample, the
// share-group and the unshared ResultOK: one allocation per slice,
// pointee framed in full and non-empty string, plus the message itself;
// a back-reference allocates nothing, and the reference table comes
// from a pool. The per-element slice growth this replaced took 53 for
// the sample, and framing every pointee in full took 40 for the sample
// and 966 for the share group, as it still does for the unshared fleet.
func TestDecodeMessageAllocs(t *testing.T) {
	exp := uint32(7)
	for _, c := range []struct {
		name  string
		fleet *protean.FleetResult
		want  float64
	}{
		{"sample", sampleFleet(&exp), 30},
		{"share", shareFleet(), 222},
		{"unshare", unshare(shareFleet()), 966},
	} {
		payload := EncodeMessage(1, ResultOK{Job: 1, Fleet: c.fleet})
		n := testing.AllocsPerRun(100, func() {
			if _, _, err := DecodeMessage(payload); err != nil {
				t.Fatal(err)
			}
		})
		if n != c.want {
			t.Errorf("DecodeMessage(ResultOK %s): %v allocations, want %v", c.name, n, c.want)
		}
	}
}
