package wire

import "fmt"

// Value is the generic decoded form of one codec value:
//
//	nil | bool | uint64 | int64 (negative only) | string | []byte |
//	Array | Map | Ref
//
// Non-negative integers always decode as uint64 and negative ones as
// int64, mirroring the canonical encoding split, so
// EncodeValue(DecodeValue(b)) reproduces b exactly for every accepted
// input. The generic form exists for the fuzzer and the codec tests,
// as a reference reader of the raw encoding; the daemon's messages
// decode into typed structs instead.
type Value any

// Array is a generic codec array.
type Array []Value

// Map is a generic codec map in wire order. Order is preserved —
// a generic map re-encodes exactly as it arrived.
type Map []MapEntry

// MapEntry is one key/value pair of a generic Map.
type MapEntry struct {
	Key, Val Value
}

// Ref is a generic back-reference: the number of a pointee framed
// earlier in the same message (object.go). The generic form keeps the
// number and does not resolve it.
type Ref uint64

// DecodeValue decodes one value from the head of buf, returning it and
// the number of bytes consumed. Arbitrary input never panics and never
// allocates more than the input could describe; nesting is bounded by
// MaxDepth.
func DecodeValue(buf []byte) (Value, int, error) {
	d := NewDecoder(buf)
	v, err := d.value(0)
	if err != nil {
		return nil, 0, err
	}
	return v, d.pos, nil
}

// Value decodes one generic value from the decoder.
func (d *Decoder) Value() (Value, error) { return d.value(0) }

func (d *Decoder) value(depth int) (Value, error) {
	if depth > MaxDepth {
		return nil, errDepth
	}
	if d.pos >= len(d.buf) {
		return nil, errShort
	}
	t := d.buf[d.pos]
	switch {
	case t == tagNil:
		d.pos++
		return nil, nil
	case t == tagTrue, t == tagFalse:
		return d.Bool()
	case t <= posFixMax, t == tagUint8, t == tagUint16, t == tagUint32, t == tagUint64:
		return d.Uint()
	case t >= negFixMin, t == tagInt8, t == tagInt16, t == tagInt32, t == tagInt64:
		return d.Int()
	case t&0xe0 == fixstrMask, t == tagStr8, t == tagStr16, t == tagStr32:
		return d.Str()
	case t == tagRef:
		i, err := d.Ref()
		if err != nil {
			return nil, err
		}
		return Ref(i), nil
	case t == tagBin8, t == tagBin16, t == tagBin32:
		b, err := d.Bin()
		if err != nil {
			return nil, err
		}
		// Detach from the frame payload so the value owns its bytes.
		out := make([]byte, len(b))
		copy(out, b)
		return out, nil
	case t&0xf0 == fixarrMask, t == tagArray16, t == tagArray32:
		n, err := d.ArrayHeader()
		if err != nil {
			return nil, err
		}
		arr := make(Array, n)
		for i := range arr {
			if arr[i], err = d.value(depth + 1); err != nil {
				return nil, err
			}
		}
		return arr, nil
	case t&0xf0 == fixmapMask, t == tagMap16, t == tagMap32:
		n, err := d.MapHeader()
		if err != nil {
			return nil, err
		}
		m := make(Map, n)
		for i := range m {
			if m[i].Key, err = d.value(depth + 1); err != nil {
				return nil, err
			}
			if m[i].Val, err = d.value(depth + 1); err != nil {
				return nil, err
			}
		}
		return m, nil
	}
	return nil, fmt.Errorf("%w: unknown tag %#02x", ErrCodec, t)
}

// EncodeValue appends the canonical encoding of a generic value.
func (e *Encoder) EncodeValue(v Value) error {
	switch v := v.(type) {
	case nil:
		e.Nil()
	case bool:
		e.Bool(v)
	case uint64:
		e.Uint(v)
	case int64:
		e.Int(v)
	case string:
		e.Str(v)
	case []byte:
		e.Bin(v)
	case Ref:
		e.Ref(uint64(v))
	case Array:
		e.ArrayHeader(len(v))
		for _, el := range v {
			if err := e.EncodeValue(el); err != nil {
				return err
			}
		}
	case Map:
		e.MapHeader(len(v))
		for _, ent := range v {
			if err := e.EncodeValue(ent.Key); err != nil {
				return err
			}
			if err := e.EncodeValue(ent.Val); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("wire: cannot encode %T as a generic value", v)
	}
	return nil
}
