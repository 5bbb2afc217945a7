package main

import (
	"strings"
	"testing"
)

// TestCompare runs -compare over two fixture trajectories: shared metrics
// only, old → new and the ratio per line, a move inside the band left
// unflagged, lower-is-better per-op costs and higher-is-better custom
// metrics flagged in the right direction, exact allocation metrics
// flagged on any growth, and the regressions counted.
func TestCompare(t *testing.T) {
	var out strings.Builder
	regressions, err := compare(&out, "testdata/old.json", "testdata/new.json")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"Engine                               allocs/op                   0 → 0            1.000x",
		"Engine                               ns/op                     100 → 80           0.800x  improved",
		"Engine                               speedup-x                   2 → 1.5          0.750x  REGRESSION",
		"Load                                 B/op                       64 → 128          2.000x  REGRESSION",
		"Load                                 ns/op                      50 → 54           1.080x",
	}
	if got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("compare output:\n%s\nwant:\n%s", out.String(), strings.Join(want, "\n"))
	}
	if regressions != 2 {
		t.Fatalf("regressions = %d, want 2", regressions)
	}
	if _, err := compare(&out, "testdata/old.json", "testdata/missing.json"); err == nil {
		t.Fatal("a missing file must be an error")
	}
}
