// Command proteansim runs one scheduling scenario on the ProteanARM and
// prints a detailed report: per-process completion, CIS activity, RFU
// dispatch statistics and (optionally) the kernel event trace. It is a
// thin front end over the public protean facade.
//
// Usage:
//
//	proteansim -app alpha|twofish|echo|mix -n 4 [-quantum cycles]
//	           [-policy rr|random|lru|2chance] [-soft] [-sharing]
//	           [-items N] [-scale N] [-trace] [-progress] [-lint] [-sta]
//	           [-trace-out f.json] [-metrics] [-cpuprofile f] [-memprofile f]
//
// -trace-out writes the run's modeled-cycle timeline as Chrome
// trace-event JSON — open the file in Perfetto (ui.perfetto.dev) or
// chrome://tracing. -metrics prints a deterministic metrics snapshot in
// the Prometheus text format after the report. Both compose with -app
// (per-process tracks) and with -scenario (per-node fleet tracks); the
// emitted bytes depend only on the modeled run, never on worker count.
//
// -cpuprofile and -memprofile write host CPU and allocation profiles
// (go tool pprof); fleet jobs carry fleet-job labels.
//
// -lint lints every circuit image the spawned programs register (dead
// logic, constant LUTs, unused flip-flops, floating inputs — see
// fabric.LintConfig) and prints the findings to stderr at spawn time; it
// composes with -app and -scenario. Only gate-level bitstream images
// carry a netlist to lint, so pair it with -gatelevel to see it bite.
//
// -sta prints each distinct circuit image's static timing summary —
// critical-path depth in LUT levels under the fabric's unit-delay model
// (see fabric.Timing) — to stderr at spawn time. Like -lint it composes
// with -app and -scenario and bites only on gate-level bitstream
// images.
//
// -app accepts any registered workload name (see -list), "mix" for one
// instance of each paper application in rotation, or a comma-separated
// list of names to rotate through.
//
// With -scenario the run is a simulated fleet instead of one session,
// described by a declarative JSON spec: node classes, arrivals, admission
// bounds, placement policy and the job stream:
//
//	proteansim -scenario testdata/scenario_hetero.json [-progress]
//
// The spec format is protean.Scenario (see LoadScenario). The report
// shows the per-job timeline, per-node utilisation, the fleet-level
// configuration traffic that affinity placement saves, the admission
// outcome (shed/deferred) and the sojourn-latency distribution of the
// admitted jobs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"protean"
	"protean/internal/obs"
)

func main() {
	appName := flag.String("app", "alpha", `workload: a registry name, "mix", or a comma-separated rotation`)
	list := flag.Bool("list", false, "print the registered workload names and exit")
	n := flag.Int("n", 4, "concurrent instances")
	quantum := flag.Uint("quantum", 0, "scheduling quantum in cycles (default: scaled 10ms)")
	policy := flag.String("policy", "rr", "replacement policy: rr, random, lru, 2chance")
	soft := flag.Bool("soft", false, "software-dispatch mode")
	sharing := flag.Bool("sharing", false, "share circuit instances between identical registrations")
	items := flag.Int("items", 0, "work units per instance (default: scaled)")
	scaleF := flag.Int("scale", 100, "scale divisor")
	seed := flag.Int64("seed", 1, "random policy seed")
	showTrace := flag.Bool("trace", false, "print the kernel event trace tail")
	progress := flag.Bool("progress", false, "stream structured progress events to stderr")
	gate := flag.Bool("gatelevel", false, "run the alpha circuit as its real placed bitstream on the fabric simulator (slow)")
	disasmN := flag.Int("disasm", 0, "stream a disassembly of the first N executed instructions to stderr")
	lintW := flag.Bool("lint", false, "lint circuit images at build time and print findings to stderr")
	staW := flag.Bool("sta", false, "print static timing summaries of circuit images at build time to stderr")
	scenarioPath := flag.String("scenario", "", "run a declarative scenario spec (JSON file); only -progress applies alongside")
	traceOut := flag.String("trace-out", "", "write the run's modeled-cycle timeline as Chrome trace-event JSON to this file (view in Perfetto)")
	metrics := flag.Bool("metrics", false, "print the run's metrics snapshot (Prometheus text format) to stdout after the report")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a host allocation profile to this file on exit")
	flag.Parse()

	// A stray positional argument stops flag parsing, silently dropping
	// every flag after it (`-n 3 4 -lint` never sees -lint); reject
	// it rather than run a half-configured session.
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "proteansim: unexpected argument %q (the tool takes flags only)\n", flag.Arg(0))
		os.Exit(2)
	}

	if *list {
		fmt.Println(strings.Join(protean.Workloads(), "\n"))
		return
	}
	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteansim:", err)
		os.Exit(1)
	}
	if *scenarioPath != "" {
		// The spec is the whole configuration: every explicitly set flag
		// other than -scenario/-progress would be silently overridden, so
		// reject them instead.
		// -progress and -lint are runtime-only diagnostics, not
		// configuration, so they compose with a spec.
		var conflicts []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scenario", "progress", "lint", "sta", "trace-out", "metrics", "cpuprofile", "memprofile":
			default:
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			err = fmt.Errorf("-scenario takes the whole configuration from the spec file; drop %s", strings.Join(conflicts, ", "))
		} else {
			err = runScenario(*scenarioPath, *progress, *lintW, *staW, *traceOut, *metrics)
		}
	} else {
		err = run(*appName, *n, uint32(*quantum), *policy, *soft, *sharing, *items, *scaleF, *seed, *showTrace, *progress, *gate, *disasmN, *lintW, *staW, *traceOut, *metrics)
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteansim:", err)
		os.Exit(1)
	}
}

// runScenario runs the -scenario mode: the whole fleet description —
// nodes, arrivals, admission, placement, jobs — comes from one JSON
// spec file.
func runScenario(path string, progress, lint, sta bool, traceOut string, metrics bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sc, err := protean.LoadScenario(data)
	if err != nil {
		return err
	}
	if traceOut != "" {
		sc.TraceOut = traceOut
	}
	if metrics {
		sc.Metrics = true
	}
	var opts []protean.StartOption
	if progress {
		opts = append(opts, protean.WithRunProgress(protean.WriterSink(os.Stderr)))
	}
	if lint || sta {
		// Analyse every job session's circuit images; only the lint and
		// timing events flow through the per-session sink, so this
		// composes with -progress (which watches the fleet, not the
		// sessions).
		sess := []protean.Option{protean.WithProgress(diagSink(lint, sta))}
		if lint {
			sess = append(sess, protean.WithLintWarnings())
		}
		if sta {
			sess = append(sess, protean.WithTimingStats())
		}
		opts = append(opts, protean.WithRunSessionOptions(sess...))
	}
	fr, err := protean.RunScenario(context.Background(), sc, opts...)
	if err != nil {
		return err
	}
	ferr := printFleet(fr)
	if fr.Metrics != nil {
		// The snapshot is a diagnostic; print it even when verification
		// failed — that is exactly when it is most wanted.
		fmt.Println("\nmetrics:")
		if err := fr.Metrics.WriteProm(os.Stdout); err != nil {
			return err
		}
	}
	return ferr
}

// printFleet renders the -scenario fleet report: per-job timeline,
// per-node utilisation, configuration traffic, and —
// when admission control or open-loop arrivals are in play — the shed /
// deferral outcome and the sojourn-latency distribution.
func printFleet(fr *protean.FleetResult) error {
	fmt.Printf("fleet: %d nodes, placement %s, %d jobs, makespan %d cycles\n\n",
		len(fr.Nodes), fr.Policy, len(fr.Jobs), fr.Makespan)
	fmt.Println("jobs:")
	for _, j := range fr.Jobs {
		if j.Shed {
			fmt.Printf("  %-3d %-24s SHED at arrival=%d (admission bound)\n", j.ID, j.Label, j.Arrival)
			continue
		}
		verdict := "OK"
		if j.Run == nil || j.Run.Err() != nil {
			verdict = "FAILED"
		}
		if j.Deferred {
			verdict += fmt.Sprintf(" (deferred %d)", j.DeferCycles)
		}
		fmt.Printf("  %-3d %-24s node=%d arrival=%-10d start=%-10d completion=%-12d cold=%d warm=%d %s\n",
			j.ID, j.Label, j.Node, j.Arrival, j.Start, j.Completion, j.ColdLoads, j.WarmHits, verdict)
	}
	fmt.Println("\nnodes:")
	for _, n := range fr.Nodes {
		util := 0.0
		if fr.Makespan > 0 {
			util = 100 * float64(n.Busy) / float64(fr.Makespan)
		}
		tag := ""
		if n.ClockScale > 1 {
			tag = fmt.Sprintf(" clock=x%d", n.ClockScale)
		}
		fmt.Printf("  node %-2d jobs=%-3d busy=%-12d (%5.1f%%) cold-loads=%-4d warm-hits=%-4d fetch-cycles=%d%s\n",
			n.Node, n.Jobs, n.Busy, util, n.ColdLoads, n.WarmHits, n.FetchCycles, tag)
	}
	fmt.Printf("\nconfig loads: %d total = %d in-session + %d cold fetches (%d warm hits, %d fetch cycles)\n",
		fr.ConfigLoads(), fr.CIS.Loads, fr.ColdLoads, fr.WarmHits, fr.FetchCycles)
	cs := fr.CIS
	fmt.Printf("CIS (all nodes): faults=%d mapping-faults=%d loads=%d restores=%d evictions=%d\n",
		cs.Faults, cs.MappingFaults, cs.Loads, cs.Restores, cs.Evictions)
	if fr.Shed > 0 || fr.Deferred > 0 {
		fmt.Printf("admission: %d shed, %d deferred (%d defer cycles)\n", fr.Shed, fr.Deferred, fr.DeferCycles)
	}
	l := fr.Latency
	if l.Jobs > 0 {
		fmt.Printf("latency (%d admitted jobs): mean=%d p50=%d p95=%d p99=%d max=%d\n",
			l.Jobs, l.Mean, l.P50, l.P95, l.P99, l.Max)
	}
	return fr.Err()
}

// parseApps expands the -app argument into the workload rotation.
func parseApps(s string, gate bool) ([]string, error) {
	var names []string
	if s == "mix" {
		names = []string{"alpha", "twofish", "echo"}
	} else {
		names = strings.Split(s, ",")
	}
	if gate {
		rewrote := false
		for i, name := range names {
			if name == "alpha" {
				names[i] = "alpha/gate"
				rewrote = true
			}
		}
		if !rewrote {
			return nil, fmt.Errorf(`-gatelevel applies to the "alpha" workload; include it in -app`)
		}
	}
	return names, nil
}

// diagSink prints lint-warning and/or timing events — and nothing else —
// to stderr, for -lint / -sta runs that did not also ask for full
// -progress streaming.
func diagSink(lint, sta bool) protean.Sink {
	return protean.SinkFunc(func(e protean.Event) {
		if (lint && e.Kind == protean.EventLintWarning) || (sta && e.Kind == protean.EventTiming) {
			fmt.Fprintln(os.Stderr, e.String())
		}
	})
}

func run(appName string, n int, quantum uint32, policyName string, soft, sharing bool, items, scaleF int, seed int64, showTrace, progress, gate bool, disasmN int, lint, sta bool, traceOut string, metrics bool) error {
	pol, err := protean.ParsePolicy(policyName)
	if err != nil {
		return err
	}
	opts := []protean.Option{
		protean.WithScale(scaleF),
		protean.WithQuantum(quantum), // 0 = scaled 10ms default
		protean.WithPolicy(pol),
		protean.WithSoftDispatch(soft),
		protean.WithSharing(sharing),
		protean.WithSeed(seed),
	}
	if showTrace {
		opts = append(opts, protean.WithTrace(64))
	}
	if progress {
		opts = append(opts, protean.WithProgress(protean.WriterSink(os.Stderr)))
	}
	if lint {
		opts = append(opts, protean.WithLintWarnings())
	}
	if sta {
		opts = append(opts, protean.WithTimingStats())
	}
	if (lint || sta) && !progress {
		// -progress already renders every event, lint warnings and
		// timing summaries included; without it, route just the
		// diagnostics to stderr.
		opts = append(opts, protean.WithProgress(diagSink(lint, sta)))
	}
	if disasmN > 0 {
		opts = append(opts, protean.WithDisasm(os.Stderr, disasmN))
	}
	if metrics {
		opts = append(opts, protean.WithMetrics())
	}
	var traceFile *os.File
	if traceOut != "" {
		traceFile, err = os.Create(traceOut)
		if err != nil {
			return err
		}
		defer traceFile.Close()
		opts = append(opts, protean.WithTraceOut(traceFile))
	}
	names, err := parseApps(appName, gate)
	if err != nil {
		return err
	}
	s, err := protean.New(opts...)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := s.Spawn(names[i%len(names)], 1, items); err != nil {
			return err
		}
	}
	res, err := s.Run(context.Background())
	if err != nil {
		return err
	}

	fmt.Printf("machine: %d cycles total, quantum %d, policy %s, soft=%v sharing=%v\n\n",
		res.Cycles, s.Quantum(), pol, soft, sharing)
	fmt.Println("processes:")
	for _, p := range res.Procs {
		verdict := "OK"
		if p.State != protean.ProcExited {
			verdict = "KILLED"
		} else if !p.OK() {
			verdict = "CHECKSUM MISMATCH"
		}
		fmt.Printf("  %-22s completion=%-12d switches=%-5d faults=%-5d instrs=%-10d %s\n",
			p.Name, p.Completion, p.Switches, p.Faults, p.Instrs, verdict)
	}
	cs := res.CIS
	fmt.Printf("\nCIS: faults=%d mapping-faults=%d loads=%d restores=%d evictions=%d soft-maps=%d share-hits=%d\n",
		cs.Faults, cs.MappingFaults, cs.Loads, cs.Restores, cs.Evictions, cs.SoftMaps, cs.ShareHits)
	fmt.Printf("     config traffic: %d bytes, %d cycles on the configuration port\n",
		cs.ConfigBytes, cs.ConfigCycles)
	rs := res.RFU
	fmt.Printf("RFU: hw-dispatches=%d sw-dispatches=%d faults=%d completions=%d aborts=%d exec-cycles=%d\n",
		rs.HWDispatches, rs.SWDispatches, rs.Faults, rs.Completions, rs.Aborts, rs.ExecCycles)
	fmt.Printf("     TLB1 %d/%d lookups/misses, TLB2 %d/%d\n",
		res.TLB1.Lookups, res.TLB1.Misses, res.TLB2.Lookups, res.TLB2.Misses)
	ks := res.Kernel
	fmt.Printf("kernel: switches=%d timer-irqs=%d syscalls=%d kernel-cycles=%d\n",
		ks.ContextSwitches, ks.TimerIRQs, ks.Syscalls, ks.KernelCycles)
	if showTrace {
		fmt.Println("\nevent trace (most recent):")
		fmt.Print(res.Trace)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return err
		}
	}
	if res.Metrics != nil {
		fmt.Println("\nmetrics:")
		if err := res.Metrics.WriteProm(os.Stdout); err != nil {
			return err
		}
	}
	return res.Err()
}
