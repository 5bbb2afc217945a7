package trace

import (
	"strings"
	"testing"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(1, EvFault, 2, "x") // must not panic
	if l.Count(EvFault) != 0 {
		t.Fatal("nil log counted")
	}
	if l.Events() != nil {
		t.Fatal("nil log has events")
	}
	if l.Keeps() {
		t.Fatal("nil log keeps events")
	}
}

func TestCountersOnlyLog(t *testing.T) {
	l := New(0)
	l.Add(1, EvSwitch, 1, "")
	l.Add(2, EvSwitch, 2, "")
	if l.Count(EvSwitch) != 2 {
		t.Fatalf("count = %d", l.Count(EvSwitch))
	}
	if len(l.Events()) != 0 {
		t.Fatal("capacity-0 log retained events")
	}
	if l.Keeps() || !New(1).Keeps() {
		t.Fatal("Keeps must report a log with ring capacity, and only that")
	}
}

func TestRingWraps(t *testing.T) {
	l := New(3)
	for i := uint64(0); i < 5; i++ {
		l.Add(i, EvFault, uint32(i), "")
	}
	ev := l.Events()
	if len(ev) != 3 {
		t.Fatalf("retained %d", len(ev))
	}
	// Oldest-first: cycles 2, 3, 4.
	for i, want := range []uint64{2, 3, 4} {
		if ev[i].Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d", i, ev[i].Cycle, want)
		}
	}
	if l.Count(EvFault) != 5 {
		t.Fatalf("total count = %d", l.Count(EvFault))
	}
	if l.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", l.Dropped())
	}
}

func TestDroppedZeroCases(t *testing.T) {
	var nilLog *Log
	if nilLog.Dropped() != 0 {
		t.Fatal("nil log dropped != 0")
	}
	l := New(4)
	for i := uint64(0); i < 4; i++ {
		l.Add(i, EvSwitch, 1, "")
	}
	if l.Dropped() != 0 {
		t.Fatalf("exactly-full ring dropped = %d, want 0", l.Dropped())
	}
	// A counters-only log retains nothing, but also drops nothing: there
	// was never a window to truncate.
	c := New(0)
	c.Add(1, EvSwitch, 1, "")
	if c.Dropped() != 0 {
		t.Fatalf("capacity-0 log dropped = %d, want 0", c.Dropped())
	}
}

func TestOrderingBeforeWrap(t *testing.T) {
	l := New(10)
	l.Add(5, EvSpawn, 1, "a")
	l.Add(6, EvExit, 1, "b")
	ev := l.Events()
	if len(ev) != 2 || ev[0].Kind != EvSpawn || ev[1].Kind != EvExit {
		t.Fatalf("events = %v", ev)
	}
}

func TestStringRendering(t *testing.T) {
	l := New(4)
	l.Add(100, EvConfigLoad, 3, "alphablend")
	l.Add(200, EvTimer, 3, "")
	s := l.String()
	if !strings.Contains(s, "config-load") || !strings.Contains(s, "alphablend") {
		t.Errorf("render:\n%s", s)
	}
	if !strings.Contains(s, "timer") {
		t.Errorf("render:\n%s", s)
	}
}

func TestKindNames(t *testing.T) {
	for k := EvSpawn; k <= EvTimer; k++ {
		if strings.HasPrefix(k.String(), "kind") {
			t.Errorf("kind %d missing name", int(k))
		}
	}
}
