// Package wire implements proteand's compact length-prefixed binary
// protocol: a hand-rolled msgpack-style codec (tag byte + big-endian
// payload), a reflective positional object layer that frames Go structs
// as fixed-arity arrays (object.go), and the fixed message vocabulary the
// daemon and its clients speak.
//
// The codec is canonical: every value has exactly one accepted encoding
// (the shortest tag family that fits), and the decoder rejects
// non-minimal forms. Canonicality is what makes the protocol testable —
// any accepted byte sequence round-trips decode→encode byte-identically
// (FuzzWireDecode pins this) — and keeps result retrieval deterministic:
// the same FleetResult always frames to the same bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Codec tag bytes — the msgpack encoding masks this codec borrows.
const (
	tagNil   = 0xc0
	tagFalse = 0xc2
	tagTrue  = 0xc3

	tagBin8  = 0xc4
	tagBin16 = 0xc5
	tagBin32 = 0xc6

	tagUint8  = 0xcc
	tagUint16 = 0xcd
	tagUint32 = 0xce
	tagUint64 = 0xcf

	tagInt8  = 0xd0
	tagInt16 = 0xd1
	tagInt32 = 0xd2
	tagInt64 = 0xd3

	// tagRef is a back-reference: a canonical uint follows, the index
	// of a pointee framed earlier in the same message (object.go). It
	// takes msgpack's fixext1 byte, which this codec has no other use
	// for.
	tagRef = 0xd4

	tagStr8  = 0xd9
	tagStr16 = 0xda
	tagStr32 = 0xdb

	tagArray16 = 0xdc
	tagArray32 = 0xdd
	tagMap16   = 0xde
	tagMap32   = 0xdf

	fixstrMask  = 0xa0 // 0xa0..0xbf, low 5 bits = length
	fixarrMask  = 0x90 // 0x90..0x9f, low 4 bits = length
	fixmapMask  = 0x80 // 0x80..0x8f, low 4 bits = length
	negFixMin   = 0xe0 // 0xe0..0xff = -32..-1
	posFixMax   = 0x7f
	fixstrMax   = 31
	fixcountMax = 15
)

// MaxDepth bounds container nesting so a hostile frame cannot overflow
// the decoder's stack.
const MaxDepth = 64

// Decode errors. ErrCodec wraps every malformed-input failure so callers
// can distinguish protocol corruption from I/O errors.
var (
	ErrCodec        = errors.New("wire: malformed frame")
	errShort        = fmt.Errorf("%w: truncated value", ErrCodec)
	errNonCanonical = fmt.Errorf("%w: non-canonical encoding", ErrCodec)
	errDepth        = fmt.Errorf("%w: nesting deeper than %d", ErrCodec, MaxDepth)
)

// Encoder appends canonically encoded values to a growable buffer.
// The zero value is ready to use; Reset recycles the buffer across
// frames.
type Encoder struct {
	buf []byte
}

// Reset truncates the buffer, keeping its capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded frame payload. The slice aliases the
// encoder's buffer and is invalidated by the next Reset.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the encoded size so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Nil appends the nil value.
func (e *Encoder) Nil() { e.buf = append(e.buf, tagNil) }

// Bool appends a boolean.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, tagTrue)
	} else {
		e.buf = append(e.buf, tagFalse)
	}
}

// Uint appends an unsigned integer in its shortest form.
func (e *Encoder) Uint(v uint64) {
	switch {
	case v <= posFixMax:
		e.buf = append(e.buf, byte(v))
	case v <= math.MaxUint8:
		e.buf = append(e.buf, tagUint8, byte(v))
	case v <= math.MaxUint16:
		e.buf = append(e.buf, tagUint16)
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(v))
	case v <= math.MaxUint32:
		e.buf = append(e.buf, tagUint32)
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(v))
	default:
		e.buf = append(e.buf, tagUint64)
		e.buf = binary.BigEndian.AppendUint64(e.buf, v)
	}
}

// Int appends a signed integer: non-negative values encode in the
// unsigned families (the canonical choice), negative ones in the
// shortest signed form.
func (e *Encoder) Int(v int64) {
	if v >= 0 {
		e.Uint(uint64(v))
		return
	}
	switch {
	case v >= -32:
		e.buf = append(e.buf, byte(v)) // 0xe0..0xff
	case v >= math.MinInt8:
		e.buf = append(e.buf, tagInt8, byte(v))
	case v >= math.MinInt16:
		e.buf = append(e.buf, tagInt16)
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(v))
	case v >= math.MinInt32:
		e.buf = append(e.buf, tagInt32)
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(v))
	default:
		e.buf = append(e.buf, tagInt64)
		e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(v))
	}
}

// Str appends a UTF-8 string header and bytes.
func (e *Encoder) Str(s string) {
	n := len(s)
	switch {
	case n <= fixstrMax:
		e.buf = append(e.buf, fixstrMask|byte(n))
	case n <= math.MaxUint8:
		e.buf = append(e.buf, tagStr8, byte(n))
	case n <= math.MaxUint16:
		e.buf = append(e.buf, tagStr16)
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(n))
	default:
		e.buf = append(e.buf, tagStr32)
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(n))
	}
	e.buf = append(e.buf, s...)
}

// Bin appends a raw byte blob.
func (e *Encoder) Bin(b []byte) {
	n := len(b)
	switch {
	case n <= math.MaxUint8:
		e.buf = append(e.buf, tagBin8, byte(n))
	case n <= math.MaxUint16:
		e.buf = append(e.buf, tagBin16)
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(n))
	default:
		e.buf = append(e.buf, tagBin32)
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(n))
	}
	e.buf = append(e.buf, b...)
}

// Ref appends a back-reference to the i-th pointee framed earlier in
// the same message.
func (e *Encoder) Ref(i uint64) {
	e.buf = append(e.buf, tagRef)
	e.Uint(i)
}

// ArrayHeader appends an array header for n elements.
func (e *Encoder) ArrayHeader(n int) {
	switch {
	case n <= fixcountMax:
		e.buf = append(e.buf, fixarrMask|byte(n))
	case n <= math.MaxUint16:
		e.buf = append(e.buf, tagArray16)
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(n))
	default:
		e.buf = append(e.buf, tagArray32)
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(n))
	}
}

// MapHeader appends a map header for n key/value pairs.
func (e *Encoder) MapHeader(n int) {
	switch {
	case n <= fixcountMax:
		e.buf = append(e.buf, fixmapMask|byte(n))
	case n <= math.MaxUint16:
		e.buf = append(e.buf, tagMap16)
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(n))
	default:
		e.buf = append(e.buf, tagMap32)
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(n))
	}
}

// uintSize, intSize, strSize, binSize, refSize and arrayHeaderSize
// return the encoded length of what Uint, Int, Str, Bin, Ref and
// ArrayHeader append — the size pass that lets a payload be allocated
// once.
func uintSize(v uint64) int {
	switch {
	case v <= posFixMax:
		return 1
	case v <= math.MaxUint8:
		return 2
	case v <= math.MaxUint16:
		return 3
	case v <= math.MaxUint32:
		return 5
	}
	return 9
}

func intSize(v int64) int {
	switch {
	case v >= 0:
		return uintSize(uint64(v))
	case v >= -32:
		return 1
	case v >= math.MinInt8:
		return 2
	case v >= math.MinInt16:
		return 3
	case v >= math.MinInt32:
		return 5
	}
	return 9
}

func strSize(n int) int {
	switch {
	case n <= fixstrMax:
		return 1 + n
	case n <= math.MaxUint8:
		return 2 + n
	case n <= math.MaxUint16:
		return 3 + n
	}
	return 5 + n
}

func binSize(n int) int {
	switch {
	case n <= math.MaxUint8:
		return 2 + n
	case n <= math.MaxUint16:
		return 3 + n
	}
	return 5 + n
}

func refSize(i uint64) int { return 1 + uintSize(i) }

func arrayHeaderSize(n int) int {
	switch {
	case n <= fixcountMax:
		return 1
	case n <= math.MaxUint16:
		return 3
	}
	return 5
}

// Decoder reads canonically encoded values from one frame payload. It
// never reads past the slice, never allocates proportionally to a
// claimed (unvalidated) length, and rejects non-minimal encodings — so
// any accepted payload re-encodes to exactly the consumed bytes.
type Decoder struct {
	buf []byte
	pos int
}

// NewDecoder decodes the given frame payload.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Rest returns the unconsumed tail of the payload.
func (d *Decoder) Rest() []byte { return d.buf[d.pos:] }

// Done reports whether the whole payload was consumed.
func (d *Decoder) Done() bool { return d.pos == len(d.buf) }

// Pos returns the number of bytes consumed so far.
func (d *Decoder) Pos() int { return d.pos }

func (d *Decoder) take(n int) ([]byte, error) {
	if len(d.buf)-d.pos < n {
		return nil, errShort
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

func (d *Decoder) tag() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, errShort
	}
	t := d.buf[d.pos]
	d.pos++
	return t, nil
}

// be reads an n-byte big-endian unsigned integer body.
func (d *Decoder) be(n int) (uint64, error) {
	b, err := d.take(n)
	if err != nil {
		return 0, err
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v, nil
}

// Uint decodes an unsigned integer, rejecting signed families and
// non-minimal widths.
func (d *Decoder) Uint() (uint64, error) {
	t, err := d.tag()
	if err != nil {
		return 0, err
	}
	switch {
	case t <= posFixMax:
		return uint64(t), nil
	case t == tagUint8:
		v, err := d.be(1)
		if err == nil && v <= posFixMax {
			return 0, errNonCanonical
		}
		return v, err
	case t == tagUint16:
		v, err := d.be(2)
		if err == nil && v <= math.MaxUint8 {
			return 0, errNonCanonical
		}
		return v, err
	case t == tagUint32:
		v, err := d.be(4)
		if err == nil && v <= math.MaxUint16 {
			return 0, errNonCanonical
		}
		return v, err
	case t == tagUint64:
		v, err := d.be(8)
		if err == nil && v <= math.MaxUint32 {
			return 0, errNonCanonical
		}
		return v, err
	}
	return 0, fmt.Errorf("%w: tag %#02x where uint expected", ErrCodec, t)
}

// Int decodes a signed integer: the unsigned families for non-negative
// values (up to MaxInt64) and the signed families for negative ones,
// both minimal.
func (d *Decoder) Int() (int64, error) {
	t, err := d.tag()
	if err != nil {
		return 0, err
	}
	switch {
	case t <= posFixMax:
		return int64(t), nil
	case t >= negFixMin:
		return int64(int8(t)), nil
	case t == tagUint8 || t == tagUint16 || t == tagUint32 || t == tagUint64:
		d.pos-- // re-read as unsigned with its canonicality checks
		v, err := d.Uint()
		if err != nil {
			return 0, err
		}
		if v > math.MaxInt64 {
			return 0, fmt.Errorf("%w: unsigned value %d overflows int64", ErrCodec, v)
		}
		return int64(v), nil
	case t == tagInt8:
		v, err := d.be(1)
		if err != nil {
			return 0, err
		}
		s := int64(int8(v))
		if s >= -32 {
			return 0, errNonCanonical
		}
		return s, nil
	case t == tagInt16:
		v, err := d.be(2)
		if err != nil {
			return 0, err
		}
		s := int64(int16(v))
		if s >= math.MinInt8 {
			return 0, errNonCanonical
		}
		return s, nil
	case t == tagInt32:
		v, err := d.be(4)
		if err != nil {
			return 0, err
		}
		s := int64(int32(v))
		if s >= math.MinInt16 {
			return 0, errNonCanonical
		}
		return s, nil
	case t == tagInt64:
		v, err := d.be(8)
		if err != nil {
			return 0, err
		}
		s := int64(v)
		if s >= math.MinInt32 {
			return 0, errNonCanonical
		}
		return s, nil
	}
	return 0, fmt.Errorf("%w: tag %#02x where int expected", ErrCodec, t)
}

// Bool decodes a boolean.
func (d *Decoder) Bool() (bool, error) {
	t, err := d.tag()
	if err != nil {
		return false, err
	}
	switch t {
	case tagTrue:
		return true, nil
	case tagFalse:
		return false, nil
	}
	return false, fmt.Errorf("%w: tag %#02x where bool expected", ErrCodec, t)
}

// Ref decodes a back-reference's index. Whether the index names an
// earlier pointee is the object layer's check (object.go).
func (d *Decoder) Ref() (uint64, error) {
	t, err := d.tag()
	if err != nil {
		return 0, err
	}
	if t != tagRef {
		return 0, fmt.Errorf("%w: tag %#02x where reference expected", ErrCodec, t)
	}
	return d.Uint()
}

// Nil consumes a nil value; the bool reports whether one was present
// (the next value is left untouched otherwise). Used for optional
// fields encoded as nil-or-value.
func (d *Decoder) Nil() bool {
	if d.pos < len(d.buf) && d.buf[d.pos] == tagNil {
		d.pos++
		return true
	}
	return false
}

// strLen decodes a string header, enforcing minimality.
func (d *Decoder) strLen() (int, error) {
	t, err := d.tag()
	if err != nil {
		return 0, err
	}
	switch {
	case t&0xe0 == fixstrMask:
		return int(t & 0x1f), nil
	case t == tagStr8:
		n, err := d.be(1)
		if err == nil && n <= fixstrMax {
			return 0, errNonCanonical
		}
		return int(n), err
	case t == tagStr16:
		n, err := d.be(2)
		if err == nil && n <= math.MaxUint8 {
			return 0, errNonCanonical
		}
		return int(n), err
	case t == tagStr32:
		n, err := d.be(4)
		if err == nil && n <= math.MaxUint16 {
			return 0, errNonCanonical
		}
		return int(n), err
	}
	return 0, fmt.Errorf("%w: tag %#02x where string expected", ErrCodec, t)
}

// Str decodes a string.
func (d *Decoder) Str() (string, error) {
	n, err := d.strLen()
	if err != nil {
		return "", err
	}
	b, err := d.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Bin decodes a byte blob. The returned slice aliases the frame payload.
func (d *Decoder) Bin() ([]byte, error) {
	t, err := d.tag()
	if err != nil {
		return nil, err
	}
	var n uint64
	switch t {
	case tagBin8:
		n, err = d.be(1)
	case tagBin16:
		n, err = d.be(2)
		if err == nil && n <= math.MaxUint8 {
			return nil, errNonCanonical
		}
	case tagBin32:
		n, err = d.be(4)
		if err == nil && n <= math.MaxUint16 {
			return nil, errNonCanonical
		}
	default:
		return nil, fmt.Errorf("%w: tag %#02x where bin expected", ErrCodec, t)
	}
	if err != nil {
		return nil, err
	}
	return d.take(int(n))
}

// ArrayHeader decodes an array header. The claimed length is bounded by
// the remaining payload (one byte per element minimum), so a hostile
// header cannot force a large allocation.
func (d *Decoder) ArrayHeader() (int, error) { return d.arrayHeader(1) }

// arrayHeader decodes an array header whose elements each take at least
// min bytes, rejecting a count the remaining payload cannot hold.
func (d *Decoder) arrayHeader(min int) (int, error) {
	t, err := d.tag()
	if err != nil {
		return 0, err
	}
	var n uint64
	switch {
	case t&0xf0 == fixarrMask:
		n = uint64(t & 0x0f)
	case t == tagArray16:
		n, err = d.be(2)
		if err == nil && n <= fixcountMax {
			return 0, errNonCanonical
		}
	case t == tagArray32:
		n, err = d.be(4)
		if err == nil && n <= math.MaxUint16 {
			return 0, errNonCanonical
		}
	default:
		return 0, fmt.Errorf("%w: tag %#02x where array expected", ErrCodec, t)
	}
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.buf)-d.pos)/uint64(min) {
		return 0, fmt.Errorf("%w: array of %d elements in %d remaining bytes", ErrCodec, n, len(d.buf)-d.pos)
	}
	return int(n), nil
}

// MapHeader decodes a map header under the same bounds as ArrayHeader
// (two bytes per pair minimum).
func (d *Decoder) MapHeader() (int, error) {
	t, err := d.tag()
	if err != nil {
		return 0, err
	}
	var n uint64
	switch {
	case t&0xf0 == fixmapMask:
		n = uint64(t & 0x0f)
	case t == tagMap16:
		n, err = d.be(2)
		if err == nil && n <= fixcountMax {
			return 0, errNonCanonical
		}
	case t == tagMap32:
		n, err = d.be(4)
		if err == nil && n <= math.MaxUint16 {
			return 0, errNonCanonical
		}
	default:
		return 0, fmt.Errorf("%w: tag %#02x where map expected", ErrCodec, t)
	}
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.buf)-d.pos)/2 {
		return 0, fmt.Errorf("%w: map of %d pairs in %d remaining bytes", ErrCodec, n, len(d.buf)-d.pos)
	}
	return int(n), nil
}

// ArrayHeaderExact decodes an array header and requires exactly want
// elements — the shape check every fixed-arity message body uses.
func (d *Decoder) ArrayHeaderExact(want int) error {
	n, err := d.ArrayHeader()
	if err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("%w: array of %d elements where %d expected", ErrCodec, n, want)
	}
	return nil
}
