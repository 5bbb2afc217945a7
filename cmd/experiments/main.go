// Command experiments regenerates the paper's evaluation: Figure 2 (basic
// scheduling test), Figure 3 (software dispatch test), the claim checks,
// the ablations described in DESIGN.md, the fleet placement sweep (F1,
// DESIGN.md §8) and the admission sweep (F2, DESIGN.md §9).
//
// Usage:
//
//	experiments [-fig 2|3|ablations|claims|cluster|admission|all] [-scale N] [-seed S] [-workers N] [-csv dir] [-metrics dir] [-quiet]
//	            [-cpuprofile f] [-memprofile f]
//
// -scale divides the paper-size experiment (see internal/exp.Scale); the
// default of 100 reproduces every figure in a couple of minutes. -scale 1
// is the full-size run (~10^8–10^9 cycles per point).
//
// -metrics writes a Prometheus-style exposition per figure
// (<figure>_metrics.prom) summarising the plotted data: series count,
// point count and the distribution of y values in modeled cycles. The
// dumps derive only from figure data, so they are byte-identical for
// any worker count, like the figures themselves.
//
// -cpuprofile and -memprofile write host CPU and allocation profiles
// (go tool pprof); samples carry sweep-cell and fleet-job labels.
//
// -workers sizes the sweep worker pool (default: GOMAXPROCS). Every sweep
// cell is an independent simulation, so the figures are identical for any
// worker count; only the ordering of per-run progress lines on stderr
// changes, because cells report as they complete.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"protean"
	"protean/internal/exp"
	"protean/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 2, 3, ablations, claims, cluster, admission, all")
	scaleF := flag.Int("scale", 100, "scale divisor (1 = paper size)")
	seed := flag.Int64("seed", 1, "seed for the random replacement policy")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	csvDir := flag.String("csv", "", "directory to write CSV files into")
	metricsDir := flag.String("metrics", "", "directory to write per-figure metrics expositions into")
	quiet := flag.Bool("quiet", false, "suppress per-run progress")
	twofish3 := flag.Bool("fig3-twofish", false, "include the twofish series the paper omits from figure 3")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a host allocation profile to this file on exit")
	flag.Parse()

	sw := exp.Sweeper{
		Scale:   exp.Scale{Factor: *scaleF},
		Seed:    *seed,
		Workers: *workers,
	}
	if !*quiet {
		sw.Progress = protean.WriterSink(os.Stderr)
	}

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	err = run(*fig, sw, *csvDir, *metricsDir, *twofish3, os.Stdout)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// figureMetrics summarises a figure's plotted data as a deterministic
// metrics snapshot: everything derives from Series contents, never from
// host timing, so the exposition is reproducible run to run.
func figureMetrics(f *exp.Figure) obs.Snapshot {
	r := obs.NewRegistry()
	r.Gauge("experiments_series", "series plotted in the figure").Set(int64(len(f.Series)))
	points := r.Counter("experiments_points_total", "data points across all series")
	y := r.Histogram("experiments_y_cycles", "distribution of plotted y values (modeled cycles)",
		obs.ExpBuckets(1024, 4, 12))
	var max uint64
	for _, s := range f.Series {
		for _, v := range s.Y {
			points.Inc()
			y.Observe(v)
			if v > max {
				max = v
			}
		}
	}
	r.Gauge("experiments_y_max_cycles", "largest plotted y value (modeled cycles)").Set(int64(max))
	return r.Snapshot()
}

func run(which string, sw exp.Sweeper, csvDir, metricsDir string, twofish3 bool, out io.Writer) error {
	switch which {
	case "2", "3", "ablations", "claims", "cluster", "admission", "all":
	default:
		return fmt.Errorf("unknown -fig %q (want 2, 3, ablations, claims, cluster, admission or all)", which)
	}
	saveCSV := func(name string, f *exp.Figure) error {
		if csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(csvDir, name), []byte(f.CSV()), 0o644)
	}
	saveMetrics := func(base string, f *exp.Figure) error {
		if metricsDir == "" {
			return nil
		}
		if err := os.MkdirAll(metricsDir, 0o755); err != nil {
			return err
		}
		snap := figureMetrics(f)
		return os.WriteFile(filepath.Join(metricsDir, base+"_metrics.prom"), []byte(snap.Prom()), 0o644)
	}

	var fig2, fig3 *exp.Figure
	var err error

	if which == "2" || which == "all" || which == "claims" {
		fig2, err = sw.Figure2()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, fig2.ASCII(64, 20))
		fmt.Fprintln(out, fig2.Table())
		if err := saveCSV("figure2.csv", fig2); err != nil {
			return err
		}
		if err := saveMetrics("figure2", fig2); err != nil {
			return err
		}
	}
	if which == "3" || which == "all" || which == "claims" {
		fig3, err = sw.Figure3(twofish3)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, fig3.ASCII(64, 20))
		fmt.Fprintln(out, fig3.Table())
		if err := saveCSV("figure3.csv", fig3); err != nil {
			return err
		}
		if err := saveMetrics("figure3", fig3); err != nil {
			return err
		}
	}

	if which == "all" || which == "claims" {
		rows, err := sw.SpeedupTable()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "C5: acceleration over the unaccelerated builds")
		for _, r := range rows {
			fmt.Fprintf(out, "  %-8s hw=%-12d baseline=%-12d speedup=%.2fx\n",
				r.App, r.HW, r.Baseline, r.Speedup)
		}
		fmt.Fprintln(out)
		fmt.Fprintln(out, "Claim checks against the paper (§5.1):")
		fmt.Fprint(out, exp.FormatClaims(exp.CheckClaims(fig2, fig3, rows)))
		fmt.Fprintln(out)
	}

	if which == "ablations" || which == "all" {
		a1, err := sw.PolicyAblation()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, a1.Table())
		if err := saveCSV("ablation_policies.csv", a1); err != nil {
			return err
		}
		if err := saveMetrics("ablation_policies", a1); err != nil {
			return err
		}

		a2, err := sw.ConfigSplitAblation()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, a2.Table())
		if err := saveCSV("ablation_split.csv", a2); err != nil {
			return err
		}
		if err := saveMetrics("ablation_split", a2); err != nil {
			return err
		}

		a3, err := sw.TLBAblation()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "A3: dispatch TLB pressure (4 alpha instances, 10ms)")
		fmt.Fprintln(out, "  entries  mapping-faults  loads  completion")
		for _, r := range a3 {
			fmt.Fprintf(out, "  %7d  %14d  %5d  %d\n", r.Entries, r.MappingFaults, r.Loads, r.Completion)
		}
		fmt.Fprintln(out)

		a4, err := sw.QuantumSweep()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, a4.Table())
		if err := saveMetrics("ablation_quantum", a4); err != nil {
			return err
		}

		a5, err := sw.SharingAblation()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, a5.Table())
		if err := saveCSV("ablation_sharing.csv", a5); err != nil {
			return err
		}
		if err := saveMetrics("ablation_sharing", a5); err != nil {
			return err
		}

		a6, err := sw.PageInAblation()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "A6: bitstream page-in cost (alpha, 6 instances, 10ms; §5.1.3)")
		fmt.Fprintln(out, "  page-in-cycles  circuit-switching  software-dispatch")
		for _, r := range a6 {
			fmt.Fprintf(out, "  %14d  %17d  %17d\n", r.PageInCycles, r.Switching, r.Soft)
		}
		fmt.Fprintln(out)

		a7, err := sw.InterruptLatencyAblation()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "A7: max timer-IRQ latency vs custom-instruction length (§4.4)")
		fmt.Fprintln(out, "  instr-cycles  atomic-cdp  interruptible-cdp")
		for _, r := range a7 {
			fmt.Fprintf(out, "  %12d  %10d  %17d\n", r.InstrCycles, r.Atomic, r.Interrupt)
		}
		fmt.Fprintln(out)

		a8, err := sw.MixedWorkload()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, a8.Table())
		if err := saveCSV("ablation_mixed.csv", a8); err != nil {
			return err
		}
		if err := saveMetrics("ablation_mixed", a8); err != nil {
			return err
		}
	}

	if which == "cluster" || which == "all" {
		f1m, f1l, err := sw.PlacementSweep()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, f1m.ASCII(64, 20))
		fmt.Fprintln(out, f1m.Table())
		fmt.Fprintln(out, f1l.Table())
		if err := saveCSV("cluster_makespan.csv", f1m); err != nil {
			return err
		}
		if err := saveCSV("cluster_configloads.csv", f1l); err != nil {
			return err
		}
		if err := saveMetrics("cluster_makespan", f1m); err != nil {
			return err
		}
		if err := saveMetrics("cluster_configloads", f1l); err != nil {
			return err
		}
	}

	if which == "admission" || which == "all" {
		f2t, f2s, err := sw.AdmissionSweep()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, f2t.ASCII(64, 20))
		fmt.Fprintln(out, f2t.Table())
		fmt.Fprintln(out, f2s.Table())
		if err := saveCSV("cluster_admission_tail.csv", f2t); err != nil {
			return err
		}
		if err := saveCSV("cluster_admission_shed.csv", f2s); err != nil {
			return err
		}
		if err := saveMetrics("cluster_admission_tail", f2t); err != nil {
			return err
		}
		if err := saveMetrics("cluster_admission_shed", f2s); err != nil {
			return err
		}
	}
	return nil
}
