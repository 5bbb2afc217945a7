package wire

import (
	"fmt"
	"reflect"
)

// This file frames Go values positionally, by reflection, so message and
// result types need no hand-written field lists. The rules:
//
//   - a struct is a fixed-arity array of its fields in declaration order;
//   - a slice is an array, except []byte, which is a bin;
//   - a pointer is nil or its pointee;
//   - bool, signed and unsigned integers and strings use the canonical
//     Encoder/Decoder primitives (codec.go).
//
// Any other kind (maps, floats, interfaces, arrays, ...) is rejected. The
// decoder requires exact struct arity, range-checks every integer against
// its own field type, and grows slices one decoded element at a time, so
// allocation follows the bytes decoded rather than a claimed count. An empty array decodes
// to a nil slice. Every accepted value therefore re-encodes to exactly
// the bytes it was decoded from.
//
// Platform-sized int and uint travel as 32-bit values: a frame a 64-bit
// host accepts means the same on a 32-bit one.

// encodeObject appends v's positional encoding. v's type must follow the
// rules above; any other kind is a programming error and panics.
func (e *Encoder) encodeObject(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		n := v.NumField()
		e.ArrayHeader(n)
		for i := 0; i < n; i++ {
			e.encodeObject(v.Field(i))
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			e.Bin(v.Bytes())
			return
		}
		n := v.Len()
		e.ArrayHeader(n)
		for i := 0; i < n; i++ {
			e.encodeObject(v.Index(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			e.Nil()
			return
		}
		e.encodeObject(v.Elem())
	case reflect.Bool:
		e.Bool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.Int(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.Uint(v.Uint())
	case reflect.String:
		e.Str(v.String())
	default:
		panic(fmt.Sprintf("wire: cannot encode %s", v.Type()))
	}
}

// decodeObject decodes one value into the settable v, which must hold
// its type's zero value.
func (d *Decoder) decodeObject(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Struct:
		n := v.NumField()
		if err := d.ArrayHeaderExact(n); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := d.decodeObject(v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			b, err := d.Bin()
			if err != nil {
				return err
			}
			v.SetBytes(b)
			return nil
		}
		n, err := d.ArrayHeader()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			v.Grow(1) // new capacity is zeroed
			v.SetLen(i + 1)
			if err := d.decodeObject(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Pointer:
		if d.Nil() {
			return nil
		}
		p := reflect.New(v.Type().Elem())
		if err := d.decodeObject(p.Elem()); err != nil {
			return err
		}
		v.Set(p)
	case reflect.Bool:
		b, err := d.Bool()
		if err != nil {
			return err
		}
		v.SetBool(b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, err := d.Int()
		if err != nil {
			return err
		}
		if v.OverflowInt(x) || v.Kind() == reflect.Int && x != int64(int32(x)) {
			return fmt.Errorf("%w: value %d overflows %s", ErrCodec, x, v.Type())
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, err := d.Uint()
		if err != nil {
			return err
		}
		if v.OverflowUint(x) || v.Kind() == reflect.Uint && x != uint64(uint32(x)) {
			return fmt.Errorf("%w: value %d overflows %s", ErrCodec, x, v.Type())
		}
		v.SetUint(x)
	case reflect.String:
		s, err := d.Str()
		if err != nil {
			return err
		}
		v.SetString(s)
	default:
		return fmt.Errorf("%w: cannot decode into %s", ErrCodec, v.Type())
	}
	return nil
}
