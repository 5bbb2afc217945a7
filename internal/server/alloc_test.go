//go:build !race

package server

import (
	"net"
	"testing"

	"protean"
	"protean/internal/wire"
)

// TestSendEventAllocs pins an event frame at one allocation, its
// payload: the message is encoded by pointer from a pooled wire.Event,
// not boxed into the wire.Msg interface by value.
func TestSendEventAllocs(t *testing.T) {
	srv := New(Config{QueueDepth: 1})
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	c := newConn(srv, server) // no pump: the test drains the queue
	w := &watcher{c: c, reqID: 7}
	ev := protean.Event{Kind: protean.EventJobDone, Label: "x"}
	var frame []byte
	allocs := testing.AllocsPerRun(100, func() {
		w.sendEvent(3, ev)
		frame = <-c.q
	})
	if allocs != 1 {
		t.Errorf("sendEvent allocated %v times per frame, want 1", allocs)
	}
	if want := wire.EncodeMessage(7, wire.Event{Job: 3, Ev: ev}); string(frame) != string(want) {
		t.Fatal("the pooled event frame differs from encoding the message by value")
	}
}
