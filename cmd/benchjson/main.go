// Command benchjson regenerates the tracked performance trajectories:
// BENCH_fabric.json (the simulation substrates — PFU settle engines,
// circuit compilation, configuration loads, the swap path, bitstream
// decode, the equivalence prover, the ARM interpreter bare and under the
// kernel, and the assembler), BENCH_cluster.json (the fleet layer — placement,
// identical jobs sharing one session, job throughput at 1k-node scale,
// placement replay alone at 1k/10k/100k nodes, one end-to-end kernel
// session, and a traced fleet run) and BENCH_daemon.json (the service
// layer — daemon submit throughput, one client's whole session of
// submit, watch and result for a share-group fleet, and the wire
// codec's encode and decode of three ResultOK frames: a sample, a
// share-group fleet and that fleet unshared). Each file runs its
// benchmark suite five times (-count 5), every sample for at least
// 200ms of benchmark time, and records the min, median and max of every
// reported metric (ns/op, allocs, and the custom metrics the benchmarks
// emit — speedup-vs-gate-x, jobs/sec, ...) as a benchmark-name → metric
// map.
//
// Metric values drift with hardware and load, so CI does not pin them;
// it runs `benchjson -check`, which runs each suite for one iteration
// and fails only on schema drift — a benchmark or metric that appeared
// in or vanished from a committed file. That keeps the trajectory files
// honest: adding a benchmark (or losing one) forces a regeneration in
// the same commit.
//
// `benchjson -compare old.json new.json` reads two trajectory files and,
// for every metric both hold, prints the old → new median, each with its
// [min, max] over the samples, and their ratio. It flags a metric that
// moved (see moved): an allocation metric whose median changed at all,
// or a timing whose two intervals separate and whose median moved past
// its band. ns/op, B/op and allocs/op are lower-is-better, every other
// metric higher-is-better. It exits nonzero when a flagged move is a
// regression.
//
// Usage:
//
//	go run ./cmd/benchjson            # rewrite every trajectory file
//	go run ./cmd/benchjson -check     # fail on schema drift, ignore values
//	go run ./cmd/benchjson -only BENCH_cluster.json
//	go run ./cmd/benchjson -compare old/BENCH_fabric.json BENCH_fabric.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchRun is one `go test -bench` invocation feeding a trajectory.
type benchRun struct {
	pkg   string
	bench string
}

// suites pins which benchmarks feed each trajectory file. The figure
// sweeps are excluded — they regenerate paper plots, not substrate or
// fleet performance.
var suites = []struct {
	file    string
	comment string
	runs    []benchRun
}{
	{
		file: "BENCH_fabric.json",
		comment: "substrate performance trajectory; regenerate with `go run ./cmd/benchjson` " +
			"(CI checks only the schema - benchmark names and metric keys - not the values)",
		runs: []benchRun{
			{".", "^(BenchmarkBehaviouralPFU|BenchmarkGatePFU|BenchmarkCompiledPFU|BenchmarkCompiledInstruction|BenchmarkCompile|" +
				"BenchmarkConfigLoad|BenchmarkConfigLoadGate|BenchmarkInstanceStampOut|BenchmarkBitstreamDecode|" +
				"BenchmarkTLBLookup|BenchmarkInterpreter|BenchmarkMachineLoop|BenchmarkAssembleTwofish)$"},
			{"./internal/core", "^BenchmarkSwapRestore$"},
			{"./internal/fabric", "^BenchmarkEquiv$"},
		},
	},
	{
		file: "BENCH_cluster.json",
		comment: "fleet performance trajectory; regenerate with `go run ./cmd/benchjson` " +
			"(CI checks only the schema - benchmark names and metric keys - not the values)",
		runs: []benchRun{
			{".", "^(BenchmarkClusterAffinityVsRoundRobin|BenchmarkClusterShareGroups|" +
				"BenchmarkFleet1kNodes|BenchmarkFleetScenarioUntraced|BenchmarkScenario)$"},
			{"./internal/cluster", "^BenchmarkReplay$"},
		},
	},
	{
		file: "BENCH_daemon.json",
		comment: "service layer performance trajectory; regenerate with `go run ./cmd/benchjson` " +
			"(CI checks only the schema - benchmark names and metric keys - not the values)",
		runs: []benchRun{
			{"./internal/server", "^(BenchmarkDaemonSubmitThroughput|BenchmarkDaemonSession)$"},
			{"./internal/wire", "^(BenchmarkWireEncode|BenchmarkWireEncodeMessage|BenchmarkWireDecode)$"},
		},
	},
}

// trajectory is the on-disk shape of a trajectory file.
type trajectory struct {
	// Comment explains the file to readers stumbling on it in the tree.
	Comment string `json:"comment"`
	// Benchmarks maps benchmark name (Benchmark prefix and -GOMAXPROCS
	// suffix stripped) to its reported metrics.
	Benchmarks map[string]map[string]spread `json:"benchmarks"`
}

// spread is one metric over a suite's samples.
type spread struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

// String renders s as its median and [min, max].
func (s spread) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Min, s.Max)
}

// Written files hold the spread of writeCount samples, each at least
// writeBenchtime long; -check compares names only, so one iteration of
// one sample does.
const (
	writeCount     = "5"
	writeBenchtime = "200ms"
)

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkCompiledPFU-8   1   2505 ns/op   2.04 speedup-vs-gate-x   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func main() {
	check := flag.Bool("check", false, "regenerate and fail on schema drift against the committed files (values are not compared)")
	only := flag.String("only", "", "limit to one trajectory file (e.g. BENCH_cluster.json)")
	compareFiles := flag.Bool("compare", false, "compare two trajectory files, old.json new.json; exit nonzero on a regression")
	flag.Parse()
	if *compareFiles {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare takes two files: old.json new.json")
			os.Exit(2)
		}
		regressions, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d metric(s) regressed\n", regressions)
			os.Exit(1)
		}
		return
	}

	matched := false
	for _, s := range suites {
		if *only != "" && s.file != *only {
			continue
		}
		matched = true
		benchtime, count := writeBenchtime, writeCount
		if *check {
			benchtime, count = "1x", "1"
		}
		got, err := run(s.comment, s.runs, benchtime, count)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}

		if *check {
			want, err := load(s.file)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			if drift := schemaDrift(want.Benchmarks, got.Benchmarks); len(drift) > 0 {
				fmt.Fprintf(os.Stderr, "benchjson: schema drift against %s:\n", s.file)
				for _, d := range drift {
					fmt.Fprintln(os.Stderr, "  "+d)
				}
				fmt.Fprintln(os.Stderr, "regenerate with: go run ./cmd/benchjson")
				os.Exit(1)
			}
			fmt.Printf("benchjson: schema matches %s (%d benchmarks)\n", s.file, len(got.Benchmarks))
			continue
		}

		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(s.file, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Printf("benchjson: wrote %s (%d benchmarks)\n", s.file, len(got.Benchmarks))
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "benchjson: -only %s matches no trajectory file\n", *only)
		os.Exit(1)
	}
}

// run executes one pinned suite and records the spread of every metric
// it reports.
func run(comment string, runs []benchRun, benchtime, count string) (*trajectory, error) {
	samples := make(map[string]map[string][]float64)
	for _, s := range runs {
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", s.bench, "-benchtime", benchtime, "-count", count, s.pkg)
		outBuf, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("go test -bench %s %s: %w\n%s", s.bench, s.pkg, err, outBuf)
		}
		if err := parse(string(outBuf), samples); err != nil {
			return nil, fmt.Errorf("parsing %s output: %w", s.pkg, err)
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark results parsed")
	}
	tr := &trajectory{
		Comment:    comment,
		Benchmarks: make(map[string]map[string]spread, len(samples)),
	}
	for name, metrics := range samples {
		tr.Benchmarks[name] = make(map[string]spread, len(metrics))
		for k, vs := range metrics {
			tr.Benchmarks[name][k] = spreadOf(vs)
		}
	}
	return tr, nil
}

// spreadOf returns the min, middle value and max of vs, reordering vs.
// Sample counts are odd (writeCount, or one under -check).
func spreadOf(vs []float64) spread {
	sort.Float64s(vs)
	return spread{Min: vs[0], Median: vs[len(vs)/2], Max: vs[len(vs)-1]}
}

// parse appends every metric sample in `go test -bench` output to dst.
func parse(out string, dst map[string]map[string][]float64) error {
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		fields := strings.Fields(m[2])
		if len(fields)%2 != 0 {
			return fmt.Errorf("odd metric fields in %q", line)
		}
		if dst[name] == nil {
			dst[name] = make(map[string][]float64, len(fields)/2)
		}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return fmt.Errorf("metric value %q in %q: %w", fields[i], line, err)
			}
			dst[name][fields[i+1]] = append(dst[name][fields[i+1]], v)
		}
	}
	return nil
}

func load(path string) (*trajectory, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr trajectory
	if err := json.Unmarshal(buf, &tr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &tr, nil
}

// schemaDrift reports benchmarks and metric keys present in one side
// but not the other, as human-readable lines. Values are ignored.
func schemaDrift(want, got map[string]map[string]spread) []string {
	var drift []string
	for _, name := range sortedKeys(want) {
		g, ok := got[name]
		if !ok {
			drift = append(drift, fmt.Sprintf("benchmark %s: in file, not reported by suite", name))
			continue
		}
		for _, k := range sortedKeys(want[name]) {
			if _, ok := g[k]; !ok {
				drift = append(drift, fmt.Sprintf("benchmark %s: metric %q in file, not reported", name, k))
			}
		}
		for _, k := range sortedKeys(g) {
			if _, ok := want[name][k]; !ok {
				drift = append(drift, fmt.Sprintf("benchmark %s: metric %q reported, not in file", name, k))
			}
		}
	}
	for _, name := range sortedKeys(got) {
		if _, ok := want[name]; !ok {
			drift = append(drift, fmt.Sprintf("benchmark %s: reported by suite, not in file", name))
		}
	}
	return drift
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// band is how far, as a fraction of the old median, a timing's median
// must move before -compare flags it.
const band = 0.10

// moved reports whether metric moved from o to n. Allocation counts and
// sizes are exact, so any change moves them. Timings vary from run to
// run, so one moves only when every new sample lies on one side of every
// old one (the [min, max] intervals separate) and the median moved past
// the band.
func moved(metric string, o, n spread) bool {
	switch metric {
	case "B/op", "allocs/op":
		return n.Median != o.Median
	}
	separate := n.Min > o.Max || n.Max < o.Min
	return separate && math.Abs(n.Median/o.Median-1) > band
}

// lowerIsBetter reports a metric's direction: the per-op costs go down
// when code gets better, the custom metrics (speedups, throughputs) up.
func lowerIsBetter(metric string) bool {
	switch metric {
	case "ns/op", "B/op", "allocs/op":
		return true
	}
	return false
}

// compare writes one line per metric the two trajectory files share, in
// name order, and returns how many regressed past their band.
func compare(w io.Writer, oldPath, newPath string) (regressions int, err error) {
	oldTr, err := load(oldPath)
	if err != nil {
		return 0, err
	}
	newTr, err := load(newPath)
	if err != nil {
		return 0, err
	}
	for _, name := range sortedKeys(oldTr.Benchmarks) {
		nm, ok := newTr.Benchmarks[name]
		if !ok {
			continue
		}
		for _, metric := range sortedKeys(oldTr.Benchmarks[name]) {
			nv, ok := nm[metric]
			if !ok {
				continue
			}
			ov := oldTr.Benchmarks[name][metric]
			ratio := nv.Median / ov.Median
			if ov.Median == nv.Median {
				ratio = 1
			}
			line := fmt.Sprintf("%-36s %-18s %28s → %-28s %7.3fx", name, metric, ov, nv, ratio)
			if moved(metric, ov, nv) {
				if (ratio > 1) == lowerIsBetter(metric) {
					line += "  REGRESSION"
					regressions++
				} else {
					line += "  improved"
				}
			}
			fmt.Fprintln(w, line)
		}
	}
	return regressions, nil
}
