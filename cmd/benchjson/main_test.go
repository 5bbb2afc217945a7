package main

import (
	"strings"
	"testing"
)

// TestCompare runs -compare over two pairs of fixture trajectories.
//
// The first pair checks the basics: shared metrics only, old → new with
// each side's [min, max] and the ratio per line, a move inside the band
// left unflagged, lower-is-better per-op costs and higher-is-better
// custom metrics flagged in the right direction, exact allocation metrics
// flagged on any growth, and the regressions counted.
//
// The second pair is noisy: a timing whose median moved 35% and a
// throughput that fell 20% stay unflagged because their intervals
// overlap, a timing whose intervals separate stays unflagged because its
// median moved less than the band, a timing that moved on both counts is
// a regression, and B/op is flagged on a median change however much its
// intervals overlap.
func TestCompare(t *testing.T) {
	cases := []struct {
		old, new    string
		want        []string
		regressions int
	}{{
		"testdata/old.json", "testdata/new.json",
		[]string{
			"Engine                               allocs/op                              0 [0, 0] → 0 [0, 0]                       1.000x",
			"Engine                               ns/op                             100 [95, 105] → 80 [76, 84]                    0.800x  improved",
			"Engine                               speedup-x                          2 [1.9, 2.1] → 1.5 [1.4, 1.6]                 0.750x  REGRESSION",
			"Load                                 B/op                                64 [64, 64] → 128 [128, 128]                 2.000x  REGRESSION",
			"Load                                 ns/op                               50 [48, 52] → 54 [53, 55]                    1.080x",
		},
		2,
	}, {
		"testdata/noisy_old.json", "testdata/noisy_new.json",
		[]string{
			"Alloc                                B/op                           1000 [990, 1010] → 1004 [1000, 1012]              1.004x  REGRESSION",
			"Interp                               ns/op                           27.4 [26.1, 41] → 36.9 [33.8, 40.9]              1.347x",
			"Jobs                                 jobs/sec                       1000 [700, 1100] → 800 [750, 900]                 0.800x",
			"Slow                                 ns/op                             100 [98, 103] → 130 [125, 140]                 1.300x  REGRESSION",
			"Tight                                ns/op                             100 [99, 101] → 104 [103, 105]                 1.040x",
		},
		2,
	}}
	for _, tc := range cases {
		var out strings.Builder
		regressions, err := compare(&out, tc.old, tc.new)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSuffix(out.String(), "\n"); got != strings.Join(tc.want, "\n") {
			t.Errorf("compare %s %s:\n%s\nwant:\n%s", tc.old, tc.new, got, strings.Join(tc.want, "\n"))
		}
		if regressions != tc.regressions {
			t.Errorf("compare %s %s: regressions = %d, want %d", tc.old, tc.new, regressions, tc.regressions)
		}
	}
	var out strings.Builder
	if _, err := compare(&out, "testdata/old.json", "testdata/missing.json"); err == nil {
		t.Fatal("a missing file must be an error")
	}
}
