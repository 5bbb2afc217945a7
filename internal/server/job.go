package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"protean"
	"protean/internal/wire"
)

// job is one submitted scenario: its run state, eventual FleetResult,
// and the set of connections watching its event stream.
//
// The watcher set is a copy-on-write slice behind an atomic pointer so
// the Event fan-out — called from the simulation hot path via the
// progress Sink — takes no locks: mutations (Watch registration,
// completion teardown) copy under mu and swap the pointer.
type job struct {
	id     uint64
	srv    *Server
	cancel context.CancelFunc

	mu       sync.Mutex
	state    string
	errMsg   string
	fleet    *protean.FleetResult
	canceled bool

	watchers atomic.Pointer[[]*watcher]
}

// Event implements protean.Sink: fan one progress event out to every
// watcher, never blocking — each watcher's send is a queue attempt
// that sheds on overflow.
func (j *job) Event(ev protean.Event) {
	ws := j.watchers.Load()
	if ws == nil {
		return
	}
	for _, w := range *ws {
		w.sendEvent(j.id, ev)
	}
}

// status snapshots the job's externally visible state.
func (j *job) status() wire.StatusOK {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := wire.StatusOK{Job: j.id, State: j.state, Err: j.errMsg}
	if j.fleet != nil {
		st.Makespan = j.fleet.Makespan
	}
	return st
}

// result returns the finished FleetResult, or an error naming the
// job's actual state.
func (j *job) result() (*protean.FleetResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != wire.StateDone {
		if j.errMsg != "" {
			return nil, errors.New("job " + j.state + ": " + j.errMsg)
		}
		return nil, errors.New("job " + j.state)
	}
	return j.fleet, nil
}

// requestCancel cancels a running job; it reports false when the job
// had already finished.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	if j.state != wire.StateRunning {
		j.mu.Unlock()
		return false
	}
	j.canceled = true
	j.mu.Unlock()
	j.cancel()
	return true
}

// addWatcher registers a watcher on a running job. It reports false —
// without registering — when the job has already finished, in which
// case the caller replies with an immediate Done carrying the final
// state.
func (j *job) addWatcher(w *watcher) (ok bool, st wire.StatusOK) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != wire.StateRunning {
		st = wire.StatusOK{Job: j.id, State: j.state, Err: j.errMsg}
		return false, st
	}
	var next []*watcher
	if ws := j.watchers.Load(); ws != nil {
		next = append(next, *ws...)
	}
	next = append(next, w)
	j.watchers.Store(&next)
	return true, st
}

// finish records the run outcome, resolves the final state, and closes
// every watch stream with a Done frame. Returns the final state.
func (j *job) finish(fr *protean.FleetResult, err error) string {
	j.mu.Lock()
	switch {
	case j.canceled && (err == nil || errors.Is(err, context.Canceled)):
		// An acknowledged cancel wins even when the run finished before
		// it observed its context: the client was told the job stops.
		j.state = wire.StateCanceled
		j.errMsg = context.Canceled.Error()
	case err == nil:
		j.state = wire.StateDone
		j.fleet = fr
	default:
		j.state = wire.StateFailed
		j.errMsg = err.Error()
	}
	ws := j.watchers.Swap(nil)
	done := wire.Done{Job: j.id, State: j.state, Err: j.errMsg}
	j.mu.Unlock()
	if ws != nil {
		for _, w := range *ws {
			w.sendDone(done)
		}
	}
	return done.State
}

// watcher is one connection's subscription to one job's event stream.
// Stream frames carry the Watch request's id so the client can
// correlate them.
type watcher struct {
	c       *conn
	reqID   uint64
	dropped atomic.Uint64 // events shed since the last delivered gap
}

// sendEvent enqueues one event frame, preceded by an EventGap marker
// when earlier frames were shed. Never blocks: on a full queue the
// event is counted dropped instead.
func (w *watcher) sendEvent(job uint64, ev protean.Event) {
	if !w.flushGap(job) {
		w.dropped.Add(1)
		w.c.srv.mDropped.Inc()
		return
	}
	m := eventPool.Get().(*wire.Event)
	*m = wire.Event{Job: job, Ev: ev}
	frame := wire.EncodeMessage(w.reqID, m)
	*m = wire.Event{}
	eventPool.Put(m)
	if !w.c.trySend(frame) {
		w.dropped.Add(1)
		w.c.srv.mDropped.Inc()
	}
}

// eventPool recycles the messages event frames are encoded from. A
// message passed by pointer encodes the same bytes as by value, and the
// pointer needs no boxing into the wire.Msg interface, so an event frame
// allocates only its payload. Jobs publish concurrently, hence a pool.
var eventPool = sync.Pool{New: func() any { return new(wire.Event) }}

// flushGap delivers any pending EventGap marker; it reports whether
// the stream is caught up (no shed frames left unannounced).
func (w *watcher) flushGap(job uint64) bool {
	d := w.dropped.Load()
	if d == 0 {
		return true
	}
	if !w.c.trySend(wire.EncodeMessage(w.reqID, wire.EventGap{Job: job, Dropped: d})) {
		return false
	}
	w.dropped.Add(^(d - 1)) // atomic subtract d; concurrent drops survive
	return true
}

// sendDone closes the stream. Done frames are not sheddable: a client
// that cannot accept one has lost the stream's framing, so the
// connection is aborted rather than left silently incomplete.
func (w *watcher) sendDone(done wire.Done) {
	if !w.flushGap(done.Job) || !w.c.trySend(wire.EncodeMessage(w.reqID, done)) {
		w.c.shut(true)
	}
}
