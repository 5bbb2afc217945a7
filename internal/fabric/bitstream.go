package fabric

import (
	"encoding/binary"
	"fmt"
)

// Bitstream layout. The configuration of a PFU is split into two frame
// groups per §4.1 of the paper:
//
//   - static frames: LUT truth tables, routing selects, switchbox words,
//     flip-flop usage/init flags — everything that defines the circuit;
//   - state frames: the current contents of the CLB registers only.
//
// The split is what makes management cheap: to swap a circuit out, the OS
// reads back only the state frames (63 bytes for a 500-CLB PFU) rather than
// the full 54 KB image, and restores the circuit later with the cached
// static image plus the tiny state frame group.
//
// A bitstream carries the static frames only. The state frame group is a
// modeled cost: a swap charges StateBytes, while the registers stay in the
// evicted circuit's engine. The 20-byte header is magic, version 1, the
// section flags (always SectionStatic), W and H, the static and state
// section lengths (the latter always 0) and two bytes of zero padding.
// Decode accepts exactly what EncodeStatic produces, so a configuration
// has one bitstream and one ConfigKey.
const (
	bitstreamMagic = "PFB1"
	headerBytes    = 20
	// CLBConfigBytes is the static frame size per CLB: truth table (2),
	// four input selects (8), flags (2), and 24 switchbox words (96).
	CLBConfigBytes = 108
	outSelBytes    = 33 * 2
)

// SectionStatic is the header flag of the static section, the only
// section a bitstream carries.
const SectionStatic = 1 << 0

// StaticBytes reports the size of a full static image for a spec,
// including the header. For the default 500-CLB PFU this is 54,086 bytes —
// the "54 Kbytes of data per configuration" of §4.1.
func StaticBytes(spec ArraySpec) int {
	return headerBytes + outSelBytes + spec.CLBs()*CLBConfigBytes
}

// StateBytes reports the size of the state frame group (excluding header):
// one bit per CLB register.
func StateBytes(spec ArraySpec) int {
	return (spec.CLBs() + 7) / 8
}

// EncodeStatic serialises a configuration's static frames.
func EncodeStatic(cfg *ArrayConfig) ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	staticLen := outSelBytes + cfg.Spec.CLBs()*CLBConfigBytes
	out := make([]byte, headerBytes+staticLen)
	copy(out, bitstreamMagic)
	out[4] = 1 // version
	out[5] = SectionStatic
	binary.LittleEndian.PutUint16(out[6:], uint16(cfg.Spec.W))
	binary.LittleEndian.PutUint16(out[8:], uint16(cfg.Spec.H))
	binary.LittleEndian.PutUint32(out[10:], uint32(staticLen))
	// Bytes 14..19, the state length and the padding, stay zero.
	p := out[headerBytes:]
	for i, sel := range cfg.OutSel {
		binary.LittleEndian.PutUint16(p[i*2:], sel)
	}
	p = p[outSelBytes:]
	for i := range cfg.CLBs {
		c := &cfg.CLBs[i]
		binary.LittleEndian.PutUint16(p[0:], c.Table)
		for j, sel := range c.InSel {
			binary.LittleEndian.PutUint16(p[2+j*2:], sel)
		}
		binary.LittleEndian.PutUint16(p[10:], c.Flags)
		for j, w := range c.Switch {
			binary.LittleEndian.PutUint32(p[12+j*4:], w)
		}
		p = p[CLBConfigBytes:]
	}
	return out, nil
}

// Decode parses a bitstream and validates its configuration. It accepts
// only the bytes EncodeStatic would produce for that configuration: any
// other flags, a state section or nonzero padding is an error.
func Decode(data []byte) (*ArrayConfig, error) {
	if len(data) < headerBytes {
		return nil, fmt.Errorf("fabric: bitstream too short (%d bytes)", len(data))
	}
	if string(data[:4]) != bitstreamMagic {
		return nil, fmt.Errorf("fabric: bad bitstream magic %q", data[:4])
	}
	if data[4] != 1 {
		return nil, fmt.Errorf("fabric: unsupported bitstream version %d", data[4])
	}
	if data[5] != SectionStatic {
		return nil, fmt.Errorf("fabric: bitstream flags %#x, want the static section only", data[5])
	}
	spec := ArraySpec{
		W: int(binary.LittleEndian.Uint16(data[6:])),
		H: int(binary.LittleEndian.Uint16(data[8:])),
	}
	if spec.W <= 0 || spec.H <= 0 || spec.CLBs() > 1<<20 {
		return nil, fmt.Errorf("fabric: implausible geometry %dx%d", spec.W, spec.H)
	}
	if stateLen := binary.LittleEndian.Uint32(data[14:]); stateLen != 0 {
		return nil, fmt.Errorf("fabric: bitstream has a %d-byte state section", stateLen)
	}
	if data[18] != 0 || data[19] != 0 {
		return nil, fmt.Errorf("fabric: nonzero bitstream header padding")
	}
	staticLen := int(binary.LittleEndian.Uint32(data[10:]))
	if want := outSelBytes + spec.CLBs()*CLBConfigBytes; staticLen != want {
		return nil, fmt.Errorf("fabric: static section %d bytes, want %d", staticLen, want)
	}
	if headerBytes+staticLen != len(data) {
		return nil, fmt.Errorf("fabric: bitstream length %d does not match section %d", len(data), staticLen)
	}
	cfg := NewArrayConfig(spec)
	p := data[headerBytes:]
	for i := range cfg.OutSel {
		cfg.OutSel[i] = binary.LittleEndian.Uint16(p[i*2:])
	}
	p = p[outSelBytes:]
	for i := range cfg.CLBs {
		c := &cfg.CLBs[i]
		c.Table = binary.LittleEndian.Uint16(p[0:])
		for j := range c.InSel {
			c.InSel[j] = binary.LittleEndian.Uint16(p[2+j*2:])
		}
		c.Flags = binary.LittleEndian.Uint16(p[10:])
		for j := range c.Switch {
			c.Switch[j] = binary.LittleEndian.Uint32(p[12+j*4:])
		}
		p = p[CLBConfigBytes:]
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}
