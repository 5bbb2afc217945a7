package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// runConfig is one measuring process's plan.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	// warmup is how many ops follow op 0 before the window opens; the
	// output digest covers ops 0..warmup, a set every run completes.
	warmup int
	// samples caps the window's ops that are re-checked by an
	// independent path after the window closes.
	samples int
	// ready, if set, is called once op 0 has been verified.
	ready func(op0Digest string)
}

// Plan constants shared by every workload.
const (
	warmupOps   = 4
	sampleEvery = 8
	maxSamples  = 2
	// phase is the length of the alternating untraced and traced phases
	// of a traced run; short enough that both see the same machine.
	phase = 500 * time.Millisecond
)

// rawRun is what one measuring process observed.
type rawRun struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Digest covers ops 0..DigestOps-1; Op0 is op 0's digest alone.
	Digest    string `json:"digest"`
	DigestOps int    `json:"digest_ops"`
	Op0       string `json:"op0"`
	// Checked counts the sampled ops re-derived by an independent path.
	Checked int `json:"checked"`

	lats, tracedLats []float64 // verified window ops, ms
	elapsed          time.Duration
	instrs           uint64
	allocBytes       uint64
	gcCycles         uint32
	layers           *layerStats
}

// fail records one failed op or check.
func (rr *rawRun) fail(err error) {
	rr.Failed++
	if len(rr.Errors) < 8 {
		rr.Errors = append(rr.Errors, err.Error())
	}
}

// windowOps is how many window ops were verified.
func (rr *rawRun) windowOps() int { return len(rr.lats) + len(rr.tracedLats) }

type sample struct {
	in  opInput
	out outcome
}

// measure runs one workload in this process: set-up, op 0, warm-up ops
// (covered by the digest), the timed window, then the sampled invariance
// checks outside the window.
func measure(ctx context.Context, cfg runConfig) *rawRun {
	rr := &rawRun{layers: newLayerStats()}
	r, err := open(cfg.workload)
	if err != nil {
		rr.fail(err)
		return rr
	}
	defer r.close()

	newOp := func() *layerOp {
		if !cfg.traced {
			return nil
		}
		return &layerOp{}
	}
	dig := newDigester()
	for i := 0; i <= cfg.warmup; i++ {
		rr.Attempted++
		in, err := genOp(cfg.workload, cfg.seed, i)
		if err != nil {
			rr.fail(err)
			return rr
		}
		out, err := r.op(ctx, 0, in, newOp())
		if err == nil {
			err = dig.add(out.result)
		}
		if err != nil {
			rr.fail(fmt.Errorf("op %d: %w", i, err))
			return rr
		}
		if i == 0 {
			rr.Op0 = dig.sum()
			if cfg.ready != nil {
				cfg.ready(rr.Op0)
			}
		}
	}
	rr.Digest, rr.DigestOps = dig.sum(), cfg.warmup+1

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var (
		mu      sync.Mutex
		next    = cfg.warmup + 1
		lastEnd time.Time
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(cfg.window)
	for client := range r.clients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; ; first = false {
				now := time.Now()
				if !first && !now.Before(deadline) {
					return
				}
				// Traced runs alternate untraced and traced phases, so the
				// overhead ratio compares ops that saw the same machine.
				traced := cfg.traced && (now.Sub(start)/phase)%2 == 0
				mu.Lock()
				i := next
				next++
				rr.Attempted++
				mu.Unlock()
				in, err := genOp(cfg.workload, cfg.seed, i)
				var lo *layerOp
				if traced {
					lo = &layerOp{}
				}
				var out outcome
				t0 := time.Now()
				if err == nil {
					out, err = r.op(ctx, client, in, lo)
				}
				end := time.Now()
				lat := ms(end.Sub(t0))
				if err == nil && traced {
					err = r.observe(in, out, lo)
				}
				mu.Lock()
				if end.After(lastEnd) {
					lastEnd = end
				}
				switch {
				case err != nil:
					rr.fail(fmt.Errorf("op %d: %w", i, err))
				case traced:
					rr.tracedLats = append(rr.tracedLats, lat)
					rr.layers.fold(*lo, lat)
				default:
					rr.lats = append(rr.lats, lat)
				}
				if err == nil {
					rr.instrs += out.instrs
					if (i-cfg.warmup-1)%sampleEvery == 0 && len(samples) < cfg.samples {
						samples = append(samples, sample{in, out})
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rr.elapsed = lastEnd.Sub(start)
	runtime.ReadMemStats(&m1)
	rr.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	rr.gcCycles = m1.NumGC - m0.NumGC

	for _, s := range samples {
		rr.Checked++
		if err := r.check(ctx, s.in, s.out); err != nil {
			rr.fail(fmt.Errorf("op %d invariance: %w", s.in.Index, err))
		}
	}
	if ops := rr.windowOps(); ops > 0 {
		rr.layers.gcPerOp = float64(rr.gcCycles) / float64(ops)
	}
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	rr.layers.heapLiveMB = float64(m2.HeapAlloc) / (1 << 20)
	if u, t := median(rr.lats), median(rr.tracedLats); u > 0 && t > 0 {
		rr.layers.overhead = t / u
	}
	return rr
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics computes the untraced metrics other than setup_s.
func (rr *rawRun) endToEndMetrics() (map[string]metricValue, error) {
	ops := len(rr.lats)
	if ops == 0 || rr.elapsed <= 0 {
		return nil, fmt.Errorf("no verified ops in the window")
	}
	p50, err := nearestRank(rr.lats, 50)
	if err != nil {
		return nil, err
	}
	p90, err := nearestRank(rr.lats, 90)
	if err != nil {
		return nil, fmt.Errorf("p90: %w (lengthen --seconds)", err)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	secs := rr.elapsed.Seconds()
	return map[string]metricValue{
		"p50_ms":           {p50, "ms"},
		"p90_ms":           {p90, "ms"},
		"ops_per_s":        {float64(ops) / secs, "1/s"},
		"sim_minstr_per_s": {float64(rr.instrs) / 1e6 / secs, "Minstr/s"},
		"rss_mb":           {rss, "MiB"},
		"alloc_mb_per_op":  {float64(rr.allocBytes) / 1e6 / float64(ops), "MB"},
	}, nil
}

// peakRSSMiB reads this process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
