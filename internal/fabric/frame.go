package fabric

import "fmt"

// State frames are the §4.1 swap currency: the per-CLB flip-flop
// contents, and nothing else, that must cross the configuration port when
// a live circuit is evicted. Both gate-level engines in this package —
// the interpretive PFU and the compiled Instance — exchange frames in
// one canonical form: one byte per CLB, 0 or 1, in CLB order (exactly
// the layout of the compiled program's power-on image, Compiled.ffInit).
// The compiled engine stores its registers in this very layout, so its
// SaveFrame is a copy and its LoadFrame needs no conversion.
//
// The swap path itself moves no frame on the host: an evicted circuit
// keeps its Instance, and the modeled frame-group bytes that cross the
// simulated configuration port (StateBytes, 8 CLBs per byte) are
// charged, not materialised.

// SaveFrame reads back the state frame group: one byte per CLB register,
// 0 or 1, in CLB order. A cut instruction settles first (see Run).
func (in *Instance) SaveFrame() []uint8 {
	in.settleCut()
	out := make([]uint8, len(in.ffQ))
	copy(out, in.ffQ)
	return out
}

// LoadFrame restores a state frame group, dropping any cut instruction.
// Nonzero bytes load as 1.
func (in *Instance) LoadFrame(frame []uint8) error {
	if len(frame) != len(in.ffQ) {
		return fmt.Errorf("fabric: frame has %d bytes, instance has %d CLBs", len(frame), len(in.ffQ))
	}
	in.cut = 0
	for i, v := range frame {
		if v != 0 {
			in.ffQ[i] = 1
		} else {
			in.ffQ[i] = 0
		}
	}
	return nil
}

// SaveFrame reads back the PFU's state frame group in the canonical
// one-byte-per-CLB form. This is the cheap half of the split
// configuration of §4.1.
func (p *PFU) SaveFrame() []uint8 {
	out := make([]uint8, len(p.ffQ))
	for i, v := range p.ffQ {
		if v {
			out[i] = 1
		}
	}
	return out
}

// LoadFrame restores a state frame group. Nonzero bytes load as 1.
func (p *PFU) LoadFrame(frame []uint8) error {
	if len(frame) != len(p.ffQ) {
		return fmt.Errorf("fabric: frame has %d bytes, PFU has %d CLBs", len(frame), len(p.ffQ))
	}
	for i, v := range frame {
		p.ffQ[i] = v != 0
	}
	return nil
}
