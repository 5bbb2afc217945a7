// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the protean stack, verifies every result,
// and prints the workload's end-to-end metrics (untraced) or per-layer
// metrics (traced) as one JSON object on the last line of stdout.
//
//	perfbench --workload contention|fleet|daemon --seed N --seconds S --trace 0|1
//	perfbench --smoke
//
// Every measurement runs in a fresh child process, so set-up is a true
// cold start and peak RSS belongs to the workload alone; an untraced run
// also starts several set-up probes and reports their median. See
// README.md for the workloads, metrics and the traced-run recipe.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// setupProbes is how many extra cold starts an untraced run times
// besides its measuring process.
const setupProbes = 6

// childTimeout bounds any child process beyond its window.
const childTimeout = 120 * time.Second

func main() {
	workload := flag.String("workload", "", "workload: contention, fleet or daemon")
	seed := flag.Int64("seed", 1, "workload seed; every op's inputs derive from it")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	smoke := flag.Bool("smoke", false, "run every workload for a few ops and check the results")
	role := flag.String("role", "", "internal: probe or measure (a child process)")
	flag.Parse()
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx := context.Background()
	if *smoke {
		ok := true
		for _, w := range workloadNames {
			rr := smokeRun(ctx, w, *seed)
			fmt.Printf("smoke %-10s ops=%d failed=%d digest=%.16s %v\n", w, rr.Attempted, rr.Failed, rr.Digest, rr.Errors)
			ok = ok && rr.Failed == 0
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		warmup:   warmupOps,
		samples:  maxSamples,
	}
	if _, err := genOp(cfg.workload, cfg.seed, 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var err error
	switch *role {
	case "":
		err = drive(cfg, os.Args[1:])
	case "probe":
		err = probe(ctx, cfg)
	case "measure":
		err = measureChild(ctx, cfg)
	default:
		err = fmt.Errorf("unknown role %q", *role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// smokeRun runs a workload for op 0, one warm-up op and one window op
// per client, traced, with one invariance check.
func smokeRun(ctx context.Context, workload string, seed int64) *rawRun {
	return measure(ctx, runConfig{workload: workload, seed: seed, traced: true, warmup: 1, samples: 1})
}

// probe is a set-up probe: set up, run op 0, print its digest, exit.
func probe(ctx context.Context, cfg runConfig) error {
	r, err := open(cfg.workload)
	if err != nil {
		return err
	}
	defer r.close()
	in, err := genOp(cfg.workload, cfg.seed, 0)
	if err != nil {
		return err
	}
	out, err := r.op(ctx, 0, in, nil)
	if err != nil {
		return err
	}
	d, err := resultDigest(out.result)
	if err != nil {
		return err
	}
	fmt.Println("ready", d)
	return nil
}

// childReport is what a measuring child prints on its report line.
type childReport struct {
	Run       rawRun                 `json:"run"`
	Metrics   map[string]metricValue `json:"metrics"`
	Breakdown []layerShare           `json:"breakdown,omitempty"`
}

// measureChild runs the measurement and prints a "ready" line after op 0
// and a "report" line at the end.
func measureChild(ctx context.Context, cfg runConfig) error {
	cfg.ready = func(d string) { fmt.Println("ready", d) }
	rr := measure(ctx, cfg)
	var rep childReport
	if rr.Failed == 0 {
		if cfg.traced {
			rep.Metrics = rr.layers.metrics()
			rep.Breakdown = rr.layers.breakdown(cfg.workload)
		} else {
			m, err := rr.endToEndMetrics()
			if err != nil {
				rr.fail(err)
			}
			rep.Metrics = m
		}
	}
	rep.Run = *rr
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("report %s\n", b)
	return nil
}

// child is one started child process and its stdout lines.
type child struct {
	cmd   *exec.Cmd
	lines *bufio.Scanner
	start time.Time
}

func startChild(ctx context.Context, args []string, role string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, append(append([]string{}, args...), "--role", role)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, lines: bufio.NewScanner(out)}
	c.lines.Buffer(nil, 64<<20)
	c.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return c, nil
}

// next returns the child's next stdout line with the given prefix,
// skipping others; ok is false at end of output.
func (c *child) next(prefix string) (rest string, ok bool) {
	for c.lines.Scan() {
		if r, found := strings.CutPrefix(c.lines.Text(), prefix+" "); found {
			return r, true
		}
	}
	return "", false
}

// drive runs the set-up probes and the measuring child, cross-checks
// their digests, and prints the result.
func drive(cfg runConfig, args []string) error {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.window+childTimeout)
	defer cancel()
	var setups []float64
	var op0s []string
	// probes times n cold starts. Half run before the measuring process
	// and half after it, so the median spans two machine states.
	probes := func(n int) error {
		for range n {
			c, err := startChild(ctx, args, "probe")
			if err != nil {
				return err
			}
			d, ok := c.next("ready")
			took := time.Since(c.start)
			if err := c.cmd.Wait(); err != nil || !ok {
				return fmt.Errorf("set-up probe failed: %v", err)
			}
			setups = append(setups, took.Seconds())
			op0s = append(op0s, d)
		}
		return nil
	}
	if !cfg.traced {
		if err := probes(setupProbes / 2); err != nil {
			return err
		}
	}
	c, err := startChild(ctx, args, "measure")
	if err != nil {
		return err
	}
	d, ok := c.next("ready")
	if ok {
		setups = append(setups, time.Since(c.start).Seconds())
		op0s = append(op0s, d)
	}
	line, ok := c.next("report")
	if err := c.cmd.Wait(); err != nil || !ok {
		return fmt.Errorf("measuring process failed: %v", err)
	}
	if !cfg.traced {
		if err := probes(setupProbes - setupProbes/2); err != nil {
			return err
		}
	}
	var rep childReport
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		return fmt.Errorf("measuring process report: %w", err)
	}
	run := &rep.Run
	for i, d := range op0s {
		if d != run.Op0 {
			run.fail(fmt.Errorf("process %d computed op 0 digest %.16s, measuring process %.16s", i, d, run.Op0))
		}
	}
	if !cfg.traced && rep.Metrics != nil {
		rep.Metrics["setup_s"] = metricValue{median(setups), "s"}
	}

	fmt.Printf("digest %s seed=%d ops=0..%d sha256=%s invariance-checks=%d\n",
		cfg.workload, cfg.seed, run.DigestOps-1, run.Digest, run.Checked)
	if len(rep.Breakdown) > 0 {
		parts := make([]string, len(rep.Breakdown))
		for i, s := range rep.Breakdown {
			parts[i] = s.Layer + " " + strconv.FormatFloat(100*s.Share, 'f', 1, 64) + "%"
		}
		fmt.Printf("layers %s: %s; dominant: %s\n", cfg.workload, strings.Join(parts, ", "), rep.Breakdown[0].Layer)
	}
	for _, e := range run.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	correct := run.Failed == 0
	metrics := map[string]metricValue{}
	defs := endToEnd
	if cfg.traced {
		defs = make([]metricDef, len(perLayer))
		for i, m := range perLayer {
			defs[i] = m.metricDef
		}
	}
	for _, def := range defs {
		v, ok := rep.Metrics[def.Name]
		if !ok {
			correct = false
			v = metricValue{0, def.Unit}
		}
		metrics[def.Name] = v
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, run.Attempted, run.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
