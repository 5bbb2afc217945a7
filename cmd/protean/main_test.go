package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"protean"
	"protean/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/watch_lines.golden from the current code")

// TestWatchLinesGolden pins the lines `protean watch` prints for the
// fleet events of the repository's one-class and two-class golden
// scenarios: job lines without and with a class tag, and fleet-done
// lines. Each event crosses the wire as the daemon sends it (an Event
// frame encoded and decoded) before printEvent renders it. Workers is
// 1, so job events arrive in execution order.
func TestWatchLinesGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, file := range []string{"scenario_uniform.json", "scenario_hetero.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := protean.LoadScenario(data)
		if err != nil {
			t.Fatal(err)
		}
		sc.Workers = 1
		var (
			mu     sync.Mutex
			events []protean.Event
		)
		sink := protean.SinkFunc(func(ev protean.Event) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, ev)
		})
		if _, err := protean.RunScenario(context.Background(), sc, protean.WithRunProgress(sink)); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, ev := range events {
			_, m, err := wire.DecodeMessage(wire.EncodeMessage(1, wire.Event{Job: 3, Ev: ev}))
			if err != nil {
				t.Fatal(err)
			}
			got := m.(wire.Event)
			printEvent(&buf, got.Job, got.Ev)
		}
	}

	path := filepath.Join("testdata", "watch_lines.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("watch lines drifted from %s:\ngot:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}
