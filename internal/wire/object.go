package wire

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sync"
	"unsafe"
)

// This file frames Go values positionally, by reflection, so message and
// result types need no hand-written field lists. The rules:
//
//   - a struct is a fixed-arity array of its fields in declaration order;
//   - a slice is an array, except []byte, which is a bin;
//   - a pointer is nil, a back-reference or its pointee;
//   - bool, signed and unsigned integers and strings use the canonical
//     Encoder/Decoder primitives (codec.go).
//
// Any other kind (maps, floats, interfaces, arrays, ...) is rejected. The
// decoder requires exact struct arity, range-checks every integer against
// its own field type, and decodes an empty array to a nil slice. Every
// accepted value therefore re-encodes to exactly the bytes it was decoded
// from.
//
// Platform-sized int and uint travel as 32-bit values: a frame a 64-bit
// host accepts means the same on a 32-bit one.
//
// Pointers. A message numbers its pointees 0, 1, ... in the order the
// codec finishes framing them. A pointer whose address and plan are
// those of an earlier, finished pointee frames as a back-reference to
// that pointee's number (tagRef and a canonical uint), so a result that
// a fleet's share group stores once for every member travels once, and
// decodes to one pointer every member shares. Two distinct pointers
// with equal contents still frame in full, and so does a pointer to a
// zero-size type, which the table never numbers: distinct zero-size
// allocations share one address. The decoder numbers exactly what the
// encoder numbers, and rejects a reference out of range, to a pointee
// still being decoded, or to a pointee of another plan. So a reference
// always resolves to a pointer the same message already decoded, the
// decoded graph stays acyclic, and decode→encode stays byte-identical.
//
// Reflection runs once per type. planFor builds a plan, caches it, and
// the codec walks the plan over the value's memory. A plan is the
// type's encoding as a flat list of steps: a struct contributes its
// array header and then its fields' steps, nested value structs
// inlined, so only slices and pointers recurse into another plan. Each
// step holds its kind, its field offset, the integer width it loads and
// the range it checks, or the element plan. The plan also holds min,
// the fewest bytes any accepted encoding of the type takes, which is
// the size of its zero value. Encoding walks twice: a size pass, then
// the encode pass into a payload allocated once at that size. The two
// passes share one reference table, an open-addressed hash table the
// encoder takes from a pool, so the payload stays a message's one
// allocation however many pointees it holds. Decoding walks once, into
// memory allocated by reflect with the plan's types, so the garbage
// collector sees every pointer it writes.
//
// Allocation bound: the decoder rejects an array whose claimed count
// could not fit in the bytes left, at the element plan's min bytes
// apiece, and allocates each slice once at its count. So no slice
// reserves more elements than the rest of the frame could hold, and a
// frame can never make the decoder reserve more than a valid frame of
// the same length, made of that slice's smallest elements, would make
// it allocate. A reference allocates nothing. A pointee decoded in full
// adds one entry to the reference table, which comes from a pool and
// otherwise starts at 16 entries and doubles, so it allocates at most
// 16 entries plus four per entry.
//
// Expansion bound: a walk that expands references (JSON, say) visits a
// shared pointee once per reference, so a small frame could stand for
// a far larger tree. The decoder records each pointee's length with
// the references inside it expanded, and rejects a message that,
// expanded, would take more than MaxFrame bytes: no accepted message
// stands for more than a frame without references could hold.

// stepKind is what one step of a plan encodes.
type stepKind uint8

const (
	stepInvalid stepKind = iota // a kind the rules above reject
	stepHeader                  // a struct's array header
	stepBool
	stepInt
	stepUint
	stepString
	stepBin // []byte
	stepSlice
	stepPointer
)

// step is one value of a plan's walk.
type step struct {
	kind stepKind
	// off is the value's offset in the plan's type.
	off uintptr
	// n is a stepHeader's field count.
	n int
	// width is a stepInt or stepUint value's size in memory, and bits
	// the range the decoder checks: the type's own width, 32 for
	// platform int and uint.
	width uintptr
	bits  int
	// elem is a stepSlice's element or a stepPointer's pointee.
	elem *plan
	// typ is the value's type, for slice allocation and errors.
	typ reflect.Type
}

// plan is the cached walk for one type.
type plan struct {
	typ   reflect.Type
	steps []step
	// width is typ's size in memory, a slice element's stride.
	width uintptr
	// min is the fewest bytes any accepted encoding of typ takes.
	min int
	// direct reports that an interface holding a typ holds the value
	// itself, not a pointer to it (pointer-shaped types).
	direct bool
}

// pointee is one pointee a message framed in full: its address and its
// plan.
type pointee struct {
	ptr unsafe.Pointer
	p   *plan
}

// encRefs is the encoder's reference table for one message: the number
// of every pointee the size pass framed in full, in the order it
// finished them, and how many references it wrote. The encode pass
// reads the same table, counting in done the pointees it has finished
// itself; it looks pointers up only if the size pass wrote a reference.
// The table comes from encRefPool at the message's first pointee and
// goes back to it, emptied, afterwards, so a message allocates no table
// once the pool holds one.
type encRefs struct {
	t             *encTable
	n, refs, done int
}

// encTable maps pointees to their numbers by open addressing on the
// address. The size pass looks up every pointer, so a lookup must cost
// little beside framing the pointee.
type encTable struct {
	slots []refSlot // a power of two, at most half full
	shift uint8     // 64 minus log2(len(slots))
}

// refSlot is one slot of an encTable; a nil pt.ptr marks it empty.
type refSlot struct {
	pt pointee
	i  int
}

// decRefs is the decoder's reference table for one message: every
// pointee it decoded in full, in the order it finished them, and how
// far the message's references expand it. Like encRefs, its table comes
// from a pool at the first pointee.
type decRefs struct {
	t *decTable
	// start is the decoder's position at the message body; extra is
	// how many bytes more the body would take with every reference
	// decoded so far replaced by the encoding it names.
	start, extra int
}

// decTable holds a decRefs' entries.
type decTable struct{ refs []decRef }

// decRef is one decoded pointee and the length of its encoding with
// every reference inside it expanded.
type decRef struct {
	pointee
	size int
}

// maxPooledRefs caps the tables the pools keep, in pointees, so one
// huge message does not pin a huge table, or make every later message
// clear it.
const maxPooledRefs = 4096

var (
	encRefPool = sync.Pool{New: func() any { return new(encTable) }}
	decRefPool = sync.Pool{New: func() any { return new(decTable) }}
)

// find returns pt's number, if the size pass framed it.
func (r *encRefs) find(pt pointee) (int, bool) {
	if r.t == nil {
		return 0, false
	}
	sl := r.t.slot(pt)
	return sl.i, sl.pt.ptr != nil
}

// add numbers pt, which the size pass just finished framing.
func (r *encRefs) add(pt pointee) {
	if r.t == nil {
		r.t = encRefPool.Get().(*encTable)
	}
	if 2*(r.n+1) > len(r.t.slots) {
		r.t.grow()
	}
	*r.t.slot(pt) = refSlot{pt, r.n}
	r.n++
}

// release returns the table to its pool once both passes are done.
func (r *encRefs) release() {
	if r.t != nil && r.n <= maxPooledRefs {
		clear(r.t.slots)
		encRefPool.Put(r.t)
	}
	r.t = nil
}

// slot returns pt's slot, or the empty slot where it belongs.
func (t *encTable) slot(pt pointee) *refSlot {
	mask := len(t.slots) - 1
	for j := int(uint64(uintptr(pt.ptr)) * 0x9e3779b97f4a7c15 >> t.shift); ; j = (j + 1) & mask {
		if sl := &t.slots[j]; sl.pt.ptr == nil || sl.pt == pt {
			return sl
		}
	}
}

// grow doubles the table, from 32 slots.
func (t *encTable) grow() {
	old := t.slots
	t.slots = make([]refSlot, max(2*len(old), 32))
	t.shift = uint8(64 - bits.TrailingZeros(uint(len(t.slots))))
	for _, sl := range old {
		if sl.pt.ptr != nil {
			*t.slot(sl.pt) = sl
		}
	}
}

// add numbers pt, a pointee just decoded in full whose encoding,
// references expanded, takes size bytes.
func (r *decRefs) add(pt pointee, size int) {
	if r.t == nil {
		r.t = decRefPool.Get().(*decTable)
	}
	if refs := r.t.refs; len(refs) == cap(refs) {
		r.t.refs = slices.Grow(refs, max(len(refs), 16)) // doubling
	}
	r.t.refs = append(r.t.refs, decRef{pt, size})
}

// resolve decodes a back-reference in a pointer slot whose pointee plan
// is p, returning the pointer it names. It rejects the reference if the
// message, references expanded, would take more than MaxFrame bytes:
// more than any frame without references can hold.
func (r *decRefs) resolve(d *Decoder, p *plan) (unsafe.Pointer, error) {
	at := d.pos
	i, err := d.Ref()
	if err != nil {
		return nil, err
	}
	var refs []decRef
	if r.t != nil {
		refs = r.t.refs
	}
	if i >= uint64(len(refs)) {
		return nil, fmt.Errorf("%w: reference to pointee %d of %d finished", ErrCodec, i, len(refs))
	}
	ref := refs[i]
	if ref.p != p {
		return nil, fmt.Errorf("%w: reference to a %s where a %s is expected", ErrCodec, ref.p.typ, p.typ)
	}
	r.extra += ref.size - (d.pos - at)
	if r.expanded(d) > MaxFrame {
		return nil, fmt.Errorf("%w: references expand the message past %d bytes", ErrCodec, MaxFrame)
	}
	return ref.ptr, nil
}

// expanded is the length of the body decoded so far, references
// expanded.
func (r *decRefs) expanded(d *Decoder) int { return d.pos - r.start + r.extra }

// release returns the table to its pool, dropping its pointers.
func (r *decRefs) release() {
	if r.t != nil && cap(r.t.refs) <= maxPooledRefs {
		clear(r.t.refs)
		r.t.refs = r.t.refs[:0]
		decRefPool.Put(r.t)
	}
	r.t = nil
}

// sliceHeader is the memory layout of every Go slice.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

var (
	plans  sync.Map // reflect.Type → *plan, complete plans only
	planMu sync.Mutex
)

// planFor returns t's plan, building and caching it on first use.
func planFor(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	planMu.Lock()
	defer planMu.Unlock()
	var building []*plan
	p := buildPlan(t, &building)
	for _, bp := range building {
		plans.Store(bp.typ, bp)
	}
	return p
}

// buildPlan builds t's plan under planMu, appending every plan it
// builds to *building. A type that refers to itself through a slice or
// pointer reuses the plan being built, whose min the reference does not
// need: a slice or pointer takes at least one byte whatever its element.
func buildPlan(t reflect.Type, building *[]*plan) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	for _, p := range *building {
		if p.typ == t {
			return p
		}
	}
	p := &plan{typ: t, width: t.Size(), direct: direct(t)}
	*building = append(*building, p)
	p.add(t, 0, building)
	for _, st := range p.steps {
		p.min += st.min()
	}
	return p
}

// add appends the steps of a t at offset off.
func (p *plan) add(t reflect.Type, off uintptr, building *[]*plan) {
	st := step{off: off, typ: t}
	switch t.Kind() {
	case reflect.Struct:
		st.kind, st.n = stepHeader, t.NumField()
		p.steps = append(p.steps, st)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			p.add(f.Type, off+f.Offset, building)
		}
		return
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			st.kind = stepBin
		} else {
			st.kind, st.elem = stepSlice, buildPlan(t.Elem(), building)
		}
	case reflect.Pointer:
		st.kind, st.elem = stepPointer, buildPlan(t.Elem(), building)
	case reflect.Bool:
		st.kind = stepBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		st.kind, st.width, st.bits = stepInt, t.Size(), intBits(t)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		st.kind, st.width, st.bits = stepUint, t.Size(), intBits(t)
	case reflect.String:
		st.kind = stepString
	}
	p.steps = append(p.steps, st)
}

// min is the fewest bytes any accepted encoding of the step takes: its
// zero value's encoding.
func (st *step) min() int {
	switch st.kind {
	case stepHeader:
		return arrayHeaderSize(st.n)
	case stepBin:
		return binSize(0)
	}
	return 1
}

// intBits is an integer type's range-checked width.
func intBits(t reflect.Type) int {
	if t.Kind() == reflect.Int || t.Kind() == reflect.Uint {
		return 32
	}
	return t.Bits()
}

// direct reports whether t is pointer-shaped: an interface holding a t
// holds the value itself. Of the pointer-shaped kinds only pointers
// matter: the codec rejects the others before reading their memory.
func direct(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer:
		return true
	case reflect.Struct:
		return t.NumField() == 1 && direct(t.Field(0).Type)
	}
	return false
}

// valuePtr returns the address of the value *m holds; p is that value's
// plan.
func valuePtr(m *Msg, p *plan) unsafe.Pointer {
	data := &(*[2]unsafe.Pointer)(unsafe.Pointer(m))[1]
	if p.direct {
		return unsafe.Pointer(data)
	}
	return *data
}

// loadInt and loadUint read the step's integer at ptr.
func (st *step) loadInt(ptr unsafe.Pointer) int64 {
	switch st.width {
	case 1:
		return int64(*(*int8)(ptr))
	case 2:
		return int64(*(*int16)(ptr))
	case 4:
		return int64(*(*int32)(ptr))
	}
	return *(*int64)(ptr)
}

func (st *step) loadUint(ptr unsafe.Pointer) uint64 {
	switch st.width {
	case 1:
		return uint64(*(*uint8)(ptr))
	case 2:
		return uint64(*(*uint16)(ptr))
	case 4:
		return uint64(*(*uint32)(ptr))
	}
	return *(*uint64)(ptr)
}

// store writes the low st.width bytes of x at ptr, for signed and
// unsigned integers alike.
func (st *step) store(ptr unsafe.Pointer, x uint64) {
	switch st.width {
	case 1:
		*(*uint8)(ptr) = uint8(x)
	case 2:
		*(*uint16)(ptr) = uint16(x)
	case 4:
		*(*uint32)(ptr) = uint32(x)
	default:
		*(*uint64)(ptr) = x
	}
}

// size returns the length of the encoding of the value at ptr, numbering
// in r every pointee it frames in full.
func (p *plan) size(r *encRefs, ptr unsafe.Pointer) int {
	n := 0
	for i := range p.steps {
		st := &p.steps[i]
		at := unsafe.Add(ptr, st.off)
		switch st.kind {
		case stepHeader:
			n += arrayHeaderSize(st.n)
		case stepBool:
			n++
		case stepInt:
			n += intSize(st.loadInt(at))
		case stepUint:
			n += uintSize(st.loadUint(at))
		case stepString:
			n += strSize(len(*(*string)(at)))
		case stepBin:
			n += binSize(len(*(*[]byte)(at)))
		case stepSlice:
			s := (*sliceHeader)(at)
			n += arrayHeaderSize(s.len)
			for j := 0; j < s.len; j++ {
				n += st.elem.size(r, unsafe.Add(s.data, uintptr(j)*st.elem.width))
			}
		case stepPointer:
			pp := *(*unsafe.Pointer)(at)
			if pp == nil {
				n++
				break
			}
			pt := pointee{pp, st.elem}
			if i, ok := r.find(pt); ok {
				n += refSize(uint64(i))
				r.refs++
				break
			}
			n += st.elem.size(r, pp)
			if st.elem.width != 0 {
				r.add(pt)
			}
		default:
			panic(fmt.Sprintf("wire: cannot encode %s", st.typ))
		}
	}
	return n
}

// encode appends the positional encoding of the value at ptr, framing
// a pointee as a reference when r, filled by the size pass, numbered it
// before this pass reached it. The value's type must follow the rules
// above; any other kind is a programming error and panics.
func (p *plan) encode(e *Encoder, r *encRefs, ptr unsafe.Pointer) {
	for i := range p.steps {
		st := &p.steps[i]
		at := unsafe.Add(ptr, st.off)
		switch st.kind {
		case stepHeader:
			e.ArrayHeader(st.n)
		case stepBool:
			e.Bool(*(*bool)(at))
		case stepInt:
			e.Int(st.loadInt(at))
		case stepUint:
			e.Uint(st.loadUint(at))
		case stepString:
			e.Str(*(*string)(at))
		case stepBin:
			e.Bin(*(*[]byte)(at))
		case stepSlice:
			s := (*sliceHeader)(at)
			e.ArrayHeader(s.len)
			for j := 0; j < s.len; j++ {
				st.elem.encode(e, r, unsafe.Add(s.data, uintptr(j)*st.elem.width))
			}
		case stepPointer:
			pp := *(*unsafe.Pointer)(at)
			if pp == nil {
				e.Nil()
				break
			}
			if r.refs > 0 {
				if i, ok := r.find(pointee{pp, st.elem}); ok && i < r.done {
					e.Ref(uint64(i))
					break
				}
			}
			st.elem.encode(e, r, pp)
			if st.elem.width != 0 {
				r.done++
			}
		default:
			panic(fmt.Sprintf("wire: cannot encode %s", st.typ))
		}
	}
}

// decode decodes one value into the zeroed memory at ptr, which the
// caller allocated as a value of the plan's type, numbering in r every
// pointee it decodes in full.
func (p *plan) decode(d *Decoder, r *decRefs, ptr unsafe.Pointer) error {
	for i := range p.steps {
		st := &p.steps[i]
		if err := st.decode(d, r, unsafe.Add(ptr, st.off)); err != nil {
			return err
		}
	}
	return nil
}

func (st *step) decode(d *Decoder, r *decRefs, at unsafe.Pointer) error {
	switch st.kind {
	case stepHeader:
		return d.ArrayHeaderExact(st.n)
	case stepBool:
		b, err := d.Bool()
		if err != nil {
			return err
		}
		*(*bool)(at) = b
	case stepInt:
		x, err := d.Int()
		if err != nil {
			return err
		}
		if st.bits < 64 && x != x<<(64-st.bits)>>(64-st.bits) {
			return fmt.Errorf("%w: value %d overflows %s", ErrCodec, x, st.typ)
		}
		st.store(at, uint64(x))
	case stepUint:
		x, err := d.Uint()
		if err != nil {
			return err
		}
		if st.bits < 64 && x>>st.bits != 0 {
			return fmt.Errorf("%w: value %d overflows %s", ErrCodec, x, st.typ)
		}
		st.store(at, x)
	case stepString:
		s, err := d.Str()
		if err != nil {
			return err
		}
		*(*string)(at) = s
	case stepBin:
		b, err := d.Bin()
		if err != nil {
			return err
		}
		*(*[]byte)(at) = b
	case stepSlice:
		n, err := d.arrayHeader(st.elem.min)
		if err != nil || n == 0 {
			return err
		}
		s := reflect.NewAt(st.typ, at).Elem()
		s.Grow(n) // the slice's one allocation, zeroed
		s.SetLen(n)
		data := s.UnsafePointer()
		for j := 0; j < n; j++ {
			if err := st.elem.decode(d, r, unsafe.Add(data, uintptr(j)*st.elem.width)); err != nil {
				return err
			}
		}
	case stepPointer:
		if d.Nil() {
			return nil
		}
		if d.pos < len(d.buf) && d.buf[d.pos] == tagRef {
			pp, err := r.resolve(d, st.elem)
			if err != nil {
				return err
			}
			*(*unsafe.Pointer)(at) = pp
			return nil
		}
		start := r.expanded(d)
		pp := reflect.New(st.elem.typ).UnsafePointer()
		if err := st.elem.decode(d, r, pp); err != nil {
			return err
		}
		*(*unsafe.Pointer)(at) = pp
		if st.elem.width != 0 {
			r.add(pointee{pp, st.elem}, r.expanded(d)-start)
		}
	default:
		return fmt.Errorf("%w: cannot decode into %s", ErrCodec, st.typ)
	}
	return nil
}
