package protean_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protean"
)

var updateProgress = flag.Bool("update", false, "rewrite testdata/progress_lines.golden from the current code")

// TestProgressLinesGolden renders every progress event of three runs
// through WriterSink and pins the lines byte for byte: the one-class
// golden scenario (job lines without a class tag), the two-class one
// (job lines tagged [class N]), each closing with its fleet-done line,
// and a session in which one process exits and one is killed. Workers
// is 1, so job events arrive in execution order. Run with -update to
// rewrite the golden file after a deliberate change to a line.
func TestProgressLinesGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := protean.WriterSink(&buf)
	for _, file := range []string{"scenario_uniform.json", "scenario_hetero.json"} {
		fmt.Fprintf(&buf, "# %s\n", file)
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := protean.LoadScenario(data)
		if err != nil {
			t.Fatal(err)
		}
		sc.Workers = 1
		if _, err := protean.RunScenario(context.Background(), sc, protean.WithRunProgress(sink)); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
	}

	fmt.Fprintln(&buf, "# session: one process exits, one is killed")
	s, err := protean.New(protean.WithScale(800), protean.WithProgress(sink))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spawn("echo", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SpawnProgram("baddesc", `
	ldr r0, =0xF8000000        ; unmapped: descriptor read faults
	swi 3
	mov r0, #0
	swi 0
`, []*protean.Image{addImage("unused")}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "progress_lines.golden")
	if *updateProgress {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.SplitAfter(buf.String(), "\n"), strings.SplitAfter(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("progress line %d drifted:\ngot:  %q\nwant: %q", i+1, g, w)
		}
	}
}
