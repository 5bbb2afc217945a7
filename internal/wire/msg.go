package wire

import (
	"fmt"
	"reflect"
	"slices"
	"unsafe"

	"protean"
)

// Version is the protocol revision negotiated by Hello/HelloOK. A server
// rejects clients whose major revision differs.
const Version = 5

// Message kinds — the first element of every message envelope.
const (
	KHello     = 1  // c→s: version handshake
	KHelloOK   = 2  // s→c: handshake accepted
	KSubmit    = 3  // c→s: scenario submission (spec JSON as bin)
	KSubmitOK  = 4  // s→c: job accepted, carries the job id
	KStatus    = 5  // c→s: job status poll
	KStatusOK  = 6  // s→c: job state
	KCancel    = 7  // c→s: cancel a job
	KCancelOK  = 8  // s→c: cancel outcome
	KResult    = 9  // c→s: retrieve a finished job's FleetResult
	KResultOK  = 10 // s→c: the framed FleetResult
	KMetrics   = 11 // c→s: daemon metrics snapshot request
	KMetricsOK = 12 // s→c: the framed obs snapshot
	KWatch     = 13 // c→s: subscribe to a job's event stream
	KEvent     = 14 // s→c: one streamed progress/Sink event
	KEventGap  = 15 // s→c: counted-drop marker for a slow reader
	KDone      = 16 // s→c: watched job finished; terminates the stream
	KError     = 17 // s→c: request failed
)

// Job states carried by StatusOK and Done.
const (
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Msg is one protocol message body. The envelope a frame carries is
//
//	[kind uint, id uint64, body array]
//
// where id correlates a response with its request (0 for unsolicited
// stream frames) and body is the message struct framed by the positional
// object codec (object.go) — a fixed-arity array per kind, no field
// names on the wire.
type Msg interface {
	// Kind returns the message's envelope tag.
	Kind() uint64
}

// Hello opens a connection.
type Hello struct {
	Version uint64
}

// HelloOK acknowledges a Hello.
type HelloOK struct {
	Version uint64
	Server  string
}

// Submit submits a scenario, as the spec's canonical JSON bytes. JSON
// stays the spec's one serialized form (golden files, proteansim and the
// daemon all agree byte-for-byte); the binary codec frames it.
type Submit struct {
	Spec []byte
}

// SubmitOK acknowledges a submission.
type SubmitOK struct {
	Job uint64
}

// Status polls one job.
type Status struct {
	Job uint64
}

// StatusOK reports a job's state; Makespan is set once done, Err once
// failed.
type StatusOK struct {
	Job      uint64
	State    string
	Makespan uint64
	Err      string
}

// Cancel requests a job's cancellation.
type Cancel struct {
	Job uint64
}

// CancelOK reports the cancel outcome; Canceled is false when the job
// had already finished.
type CancelOK struct {
	Job      uint64
	Canceled bool
}

// Result requests a finished job's FleetResult.
type Result struct {
	Job uint64
}

// ResultOK carries the full FleetResult, structurally encoded.
type ResultOK struct {
	Job   uint64
	Fleet *protean.FleetResult
}

// Metrics requests the daemon's metrics snapshot.
type Metrics struct{}

// MetricsOK carries the daemon's metrics snapshot.
type MetricsOK struct {
	Snap protean.Metrics
}

// Watch subscribes the connection to a job's event stream. The stream
// delivers Event frames (and EventGap markers when the reader lagged)
// until a Done frame carrying the watch's request id closes it.
type Watch struct {
	Job uint64
}

// Event is one streamed progress event for a watched job.
type Event struct {
	Job uint64
	Ev  protean.Event
}

// EventGap reports that Dropped event frames for the job were shed
// because the connection's write queue was full — the wire twin of the
// trace ring's counted-overwrite contract: lossy, but never silently.
type EventGap struct {
	Job     uint64
	Dropped uint64
}

// Done closes a watch stream with the job's final state.
type Done struct {
	Job   uint64
	State string
	Err   string
}

// Error reports a failed request.
type Error struct {
	Msg string
}

func (Hello) Kind() uint64     { return KHello }
func (HelloOK) Kind() uint64   { return KHelloOK }
func (Submit) Kind() uint64    { return KSubmit }
func (SubmitOK) Kind() uint64  { return KSubmitOK }
func (Status) Kind() uint64    { return KStatus }
func (StatusOK) Kind() uint64  { return KStatusOK }
func (Cancel) Kind() uint64    { return KCancel }
func (CancelOK) Kind() uint64  { return KCancelOK }
func (Result) Kind() uint64    { return KResult }
func (ResultOK) Kind() uint64  { return KResultOK }
func (Metrics) Kind() uint64   { return KMetrics }
func (MetricsOK) Kind() uint64 { return KMetricsOK }
func (Watch) Kind() uint64     { return KWatch }
func (Event) Kind() uint64     { return KEvent }
func (EventGap) Kind() uint64  { return KEventGap }
func (Done) Kind() uint64      { return KDone }
func (Error) Kind() uint64     { return KError }

// msgTypes maps each message kind to its body type, indexed by kind.
var msgTypes = [...]reflect.Type{
	KHello:     reflect.TypeFor[Hello](),
	KHelloOK:   reflect.TypeFor[HelloOK](),
	KSubmit:    reflect.TypeFor[Submit](),
	KSubmitOK:  reflect.TypeFor[SubmitOK](),
	KStatus:    reflect.TypeFor[Status](),
	KStatusOK:  reflect.TypeFor[StatusOK](),
	KCancel:    reflect.TypeFor[Cancel](),
	KCancelOK:  reflect.TypeFor[CancelOK](),
	KResult:    reflect.TypeFor[Result](),
	KResultOK:  reflect.TypeFor[ResultOK](),
	KMetrics:   reflect.TypeFor[Metrics](),
	KMetricsOK: reflect.TypeFor[MetricsOK](),
	KWatch:     reflect.TypeFor[Watch](),
	KEvent:     reflect.TypeFor[Event](),
	KEventGap:  reflect.TypeFor[EventGap](),
	KDone:      reflect.TypeFor[Done](),
	KError:     reflect.TypeFor[Error](),
}

// AppendMessage appends one enveloped message to the encoder: the frame
// payload for WriteFrame. The buffer grows at most once, to the
// message's encoded size.
func AppendMessage(e *Encoder, id uint64, m Msg) {
	p := planFor(reflect.TypeOf(m))
	ptr := valuePtr(&m, p)
	var r encRefs
	e.buf = slices.Grow(e.buf, envelopeSize(id, m, p.size(&r, ptr)))
	e.appendMessage(id, m, p, &r, ptr)
	r.release()
}

// EncodeMessage encodes one enveloped message as a fresh payload,
// allocated once at its encoded size.
func EncodeMessage(id uint64, m Msg) []byte {
	p := planFor(reflect.TypeOf(m))
	ptr := valuePtr(&m, p)
	var r encRefs
	e := Encoder{buf: make([]byte, 0, envelopeSize(id, m, p.size(&r, ptr)))}
	e.appendMessage(id, m, p, &r, ptr)
	r.release()
	return e.buf
}

// envelopeSize is the encoded size of m's envelope around a body of
// body bytes.
func envelopeSize(id uint64, m Msg, body int) int {
	return arrayHeaderSize(3) + uintSize(m.Kind()) + uintSize(id) + body
}

// appendMessage appends m's envelope; p is m's plan, r the reference
// table its size pass filled and ptr the address of its value.
func (e *Encoder) appendMessage(id uint64, m Msg, p *plan, r *encRefs, ptr unsafe.Pointer) {
	e.ArrayHeader(3)
	e.Uint(m.Kind())
	e.Uint(id)
	p.encode(e, r, ptr)
}

// DecodeMessage decodes one enveloped message from a frame payload,
// requiring the payload to hold exactly one envelope. Byte slices in the
// returned message (Submit.Spec) alias the payload.
func DecodeMessage(payload []byte) (id uint64, m Msg, err error) {
	d := NewDecoder(payload)
	id, m, err = ReadMessage(d)
	if err != nil {
		return 0, nil, err
	}
	if !d.Done() {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes after message", ErrCodec, len(d.Rest()))
	}
	return id, m, nil
}

// ReadMessage decodes one enveloped message from the decoder.
func ReadMessage(d *Decoder) (uint64, Msg, error) {
	if err := d.ArrayHeaderExact(3); err != nil {
		return 0, nil, err
	}
	kind, err := d.Uint()
	if err != nil {
		return 0, nil, err
	}
	id, err := d.Uint()
	if err != nil {
		return 0, nil, err
	}
	m, err := decodeBody(d, kind)
	if err != nil {
		return 0, nil, fmt.Errorf("message kind %d: %w", kind, err)
	}
	return id, m, nil
}

func decodeBody(d *Decoder, kind uint64) (Msg, error) {
	if kind >= uint64(len(msgTypes)) || msgTypes[kind] == nil {
		return nil, fmt.Errorf("%w: unknown message kind %d", ErrCodec, kind)
	}
	p := planFor(msgTypes[kind])
	v := reflect.New(p.typ)
	r := decRefs{start: d.pos}
	err := p.decode(d, &r, v.UnsafePointer())
	r.release()
	if err != nil {
		return nil, err
	}
	return v.Elem().Interface().(Msg), nil
}
