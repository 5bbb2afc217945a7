package protean

import (
	"fmt"
	"io"
	"sync"
)

// EventKind classifies a progress event.
type EventKind int

// Event kinds.
const (
	// EventRunStart fires when Session.Run dispatches its first process.
	EventRunStart EventKind = iota
	// EventProcessExit fires each time a process exits or is killed, with
	// its final statistics.
	EventProcessExit
	// EventRunDone fires when every process has finished.
	EventRunDone
	// EventCellDone fires once per completed cell of an experiment sweep
	// (internal/exp's figure generators).
	EventCellDone
	// EventJobDone fires once per executed cluster job, from the fleet's
	// worker goroutines in completion order.
	EventJobDone
	// EventFleetDone fires when a cluster run has placed every job — once
	// per replayed placement policy (exactly once for a plain Run).
	EventFleetDone
	// EventLintWarning fires once per static-analysis finding in a
	// spawned program's circuit images when the session was built with
	// WithLintWarnings — at spawn time, before the run starts.
	EventLintWarning
	// EventTiming fires once per distinct circuit image when the session
	// was built with WithTimingStats — at spawn time, before the run
	// starts — carrying the image's static critical-path summary.
	EventTiming
)

func (k EventKind) String() string {
	switch k {
	case EventRunStart:
		return "run-start"
	case EventProcessExit:
		return "proc-exit"
	case EventRunDone:
		return "run-done"
	case EventCellDone:
		return "cell-done"
	case EventJobDone:
		return "job-done"
	case EventFleetDone:
		return "fleet-done"
	case EventLintWarning:
		return "lint-warning"
	case EventTiming:
		return "timing"
	default:
		return fmt.Sprintf("event%d", int(k))
	}
}

// Event is one structured progress notification. It replaces the bare
// io.Writer progress sink the experiment harness used to take: consumers
// that want machine-readable progress read the fields; consumers that want
// the classic log lines call String, or use WriterSink.
type Event struct {
	Kind EventKind
	// Label identifies the subject: the process name for process events,
	// the job label for job events, the cell label for sweep events.
	Label string
	// PID identifies the process for EventProcessExit.
	PID uint32
	// Code is the exit code for EventProcessExit.
	Code uint32
	// Cycle is the machine-cycle timestamp: the completion cycle for
	// process and cell events, the total for EventRunDone.
	Cycle uint64
	// Procs is the process count for run-level events.
	Procs int
	// Class tags an EventJobDone from a fleet of several node classes
	// with the class it executed on, plus one; 0 means no class tag. At
	// 32 bits it shares a word with OK, which keeps an Event at 72 bytes.
	Class int32
	// OK reports success for terminal events (clean exit, verified cell
	// or job).
	OK bool
	// Message is a preformatted human-readable line, set only by the
	// kinds that fire once per run, fleet or cell (run start and done,
	// fleet done, sweep cells, lint and timing reports); String returns
	// it verbatim when present.
	Message string
}

// String renders the event as its human-readable line: Message when the
// producer preformatted one, the job or process-exit line built from
// the fields, or "kind label cycle=N" for anything else.
func (e Event) String() string {
	switch {
	case e.Message != "":
		return e.Message
	case e.Kind == EventJobDone:
		tag := ""
		if e.Class > 0 {
			tag = fmt.Sprintf(" [class %d]", e.Class-1)
		}
		return fmt.Sprintf("job %-24s%s executed in %12d cycles (verified=%v)", e.Label, tag, e.Cycle, e.OK)
	case e.Kind == EventProcessExit:
		state := ProcKilled
		if e.OK {
			state = ProcExited
		}
		return fmt.Sprintf("proc %-20s pid=%-4d %s code=%d cycle=%d", e.Label, e.PID, state, e.Code, e.Cycle)
	}
	return fmt.Sprintf("%s %s cycle=%d", e.Kind, e.Label, e.Cycle)
}

// Sink consumes progress events. Implementations must be safe for
// concurrent use: experiment sweeps emit from every worker goroutine.
type Sink interface {
	Event(Event)
}

// SinkFunc adapts a function to the Sink interface. The function must be
// safe for concurrent use.
type SinkFunc func(Event)

// Event implements Sink.
func (f SinkFunc) Event(e Event) { f(e) }

// WriterSink renders events as human-readable lines on w, one line per
// event. Writes are serialized through a mutex, so one WriterSink may be
// shared by concurrent sweep workers without interleaving mid-line.
func WriterSink(w io.Writer) Sink {
	return &writerSink{w: w}
}

type writerSink struct {
	mu sync.Mutex
	w  io.Writer
}

func (ws *writerSink) Event(e Event) {
	// The critical section is one formatted write; contention is bounded
	// by line rendering, never by simulation work.
	ws.mu.Lock() //lint:blocking short write-serialization section
	defer ws.mu.Unlock()
	fmt.Fprintln(ws.w, e.String())
}
