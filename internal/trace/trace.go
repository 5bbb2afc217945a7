// Package trace records simulator events for analysis and debugging: a
// bounded ring of timestamped kernel/CIS events plus running aggregate
// counters that the experiment harness reads.
package trace

import (
	"fmt"
	"strings"
)

// Kind classifies events.
type Kind int

// Event kinds.
const (
	EvSpawn Kind = iota
	EvExit
	EvSwitch
	EvFault
	EvMapInstall
	EvConfigLoad
	EvStateSave
	EvStateRestore
	EvSoftMap
	EvEvict
	EvKill
	EvTimer
)

var kindNames = [...]string{
	"spawn", "exit", "switch", "fault", "map", "config-load",
	"state-save", "state-restore", "soft-map", "evict", "kill", "timer",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", int(k))
}

// Event is one timestamped record.
type Event struct {
	Cycle uint64
	Kind  Kind
	PID   uint32
	Note  string
}

func (e Event) String() string {
	if e.Note == "" {
		return fmt.Sprintf("%12d %-14s pid=%d", e.Cycle, e.Kind, e.PID)
	}
	return fmt.Sprintf("%12d %-14s pid=%-3d %s", e.Cycle, e.Kind, e.PID, e.Note)
}

// Log is a bounded event ring with aggregate counters. A nil *Log is valid
// and records nothing, so tracing can be compiled out of hot paths by
// passing nil.
type Log struct {
	ring    []Event
	next    int
	wrap    bool
	count   [len(kindNames)]uint64
	dropped uint64
}

// New returns a log keeping the most recent cap events (cap <= 0 keeps
// counters only).
func New(capacity int) *Log {
	l := &Log{}
	if capacity > 0 {
		l.ring = make([]Event, 0, capacity)
	}
	return l
}

// Add records an event.
func (l *Log) Add(cycle uint64, kind Kind, pid uint32, note string) {
	if l == nil {
		return
	}
	l.count[kind]++
	if cap(l.ring) == 0 {
		return
	}
	e := Event{Cycle: cycle, Kind: kind, PID: pid, Note: note}
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
		return
	}
	l.ring[l.next] = e
	l.next = (l.next + 1) % cap(l.ring)
	l.wrap = true
	l.dropped++ // the overwritten event is gone; never lose that silently
}

// Keeps reports whether the log retains events, not only counters. A
// caller that builds an event's note can skip the work when it does not.
func (l *Log) Keeps() bool { return l != nil && cap(l.ring) > 0 }

// Dropped reports how many events were overwritten after the ring
// filled. A non-zero value means Events() is a truncated window, not
// the full timeline.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Count reports how many events of a kind were recorded (including ones
// that have fallen out of the ring).
func (l *Log) Count(kind Kind) uint64 {
	if l == nil {
		return 0
	}
	return l.count[kind]
}

// Events returns the retained events oldest-first.
func (l *Log) Events() []Event {
	if l == nil || cap(l.ring) == 0 {
		return nil
	}
	if !l.wrap {
		out := make([]Event, len(l.ring))
		copy(out, l.ring)
		return out
	}
	out := make([]Event, 0, cap(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// String renders the retained events, one per line.
func (l *Log) String() string {
	var sb strings.Builder
	for _, e := range l.Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
