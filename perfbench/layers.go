package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"protean"
	"protean/internal/wire"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the untraced metrics, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"rss_mb", "MiB"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer lists the traced metrics, in BENCHMARK.json order, with how
// each is folded over the traced ops: the median of per-op values for
// spans, the per-op mean for counts, and sums over sums for ratios. A
// layer a workload does not reach reports 0.
var perLayer = []struct {
	metricDef
	fold func(*layerStats) float64
}{
	{metricDef{"protean.new_ms", "ms"}, medianOf("protean.new_ms")},
	{metricDef{"protean.spawn_ms", "ms"}, medianOf("protean.spawn_ms")},
	{metricDef{"protean.run_ms", "ms"}, medianOf("protean.run_ms")},
	{metricDef{"protean.resolve_ms", "ms"}, medianOf("protean.resolve_ms")},
	{metricDef{"protean.marshal_ms", "ms"}, medianOf("protean.marshal_ms")},
	{metricDef{"arm.instrs", "count"}, meanOf("arm.instrs")},
	{metricDef{"arm.ns_per_instr", "ns"}, ratioOf(1e6, "sim_ms", "arm.instrs")},
	{metricDef{"kernel.cis_loads", "count"}, meanOf("kernel.cis_loads")},
	{metricDef{"kernel.cis_faults", "count"}, meanOf("kernel.cis_faults")},
	{metricDef{"kernel.context_switches", "count"}, meanOf("kernel.context_switches")},
	{metricDef{"kernel.config_mb", "MB"}, meanOf("kernel.config_mb")},
	{metricDef{"kernel.ns_per_cis_load", "ns"}, ratioOf(1e6, "sim_ms", "kernel.cis_loads")},
	{metricDef{"core.tlb1_miss_ratio", "ratio"}, ratioOf(1, "tlb1_misses", "tlb1_lookups")},
	{metricDef{"core.hw_dispatches", "count"}, meanOf("core.hw_dispatches")},
	{metricDef{"core.aborts", "count"}, meanOf("core.aborts")},
	{metricDef{"core.state_saves", "count"}, meanOf("core.state_saves")},
	{metricDef{"cluster.execute_ms", "ms"}, medianOf("cluster.execute_ms")},
	{metricDef{"cluster.replay_ms", "ms"}, medianOf("cluster.replay_ms")},
	{metricDef{"cluster.sessions", "count"}, meanOf("cluster.sessions")},
	{metricDef{"cluster.lane_occupancy", "ratio"}, ratioOf(1, "fleet_jobs", "cluster.sessions")},
	{metricDef{"cluster.cold_loads", "count"}, meanOf("cluster.cold_loads")},
	{metricDef{"cluster.warm_hit_ratio", "ratio"}, ratioOf(1, "warm_hits", "placements")},
	{metricDef{"server.submit_ms", "ms"}, medianOf("server.submit_ms")},
	{metricDef{"server.watch_ms", "ms"}, medianOf("server.watch_ms")},
	{metricDef{"server.result_ms", "ms"}, medianOf("server.result_ms")},
	{metricDef{"server.events", "count"}, meanOf("server.events")},
	{metricDef{"server.events_dropped", "count"}, meanOf("server.events_dropped")},
	{metricDef{"server.delivered_ratio", "ratio"}, ratioOf(1, "server.events", "events_sent")},
	{metricDef{"wire.encode_ms", "ms"}, medianOf("wire.encode_ms")},
	{metricDef{"wire.decode_ms", "ms"}, medianOf("wire.decode_ms")},
	{metricDef{"wire.result_kb", "KiB"}, meanOf("wire.result_kb")},
	{metricDef{"runtime.gc_cycles_per_op", "count"}, func(s *layerStats) float64 { return s.gcPerOp }},
	{metricDef{"runtime.heap_live_mb", "MiB"}, func(s *layerStats) float64 { return s.heapLiveMB }},
	{metricDef{"trace.overhead_ratio", "ratio"}, func(s *layerStats) float64 { return s.overhead }},
}

func medianOf(key string) func(*layerStats) float64 {
	return func(s *layerStats) float64 { return median(s.values[key]) }
}

func meanOf(key string) func(*layerStats) float64 {
	return func(s *layerStats) float64 { return mean(s.values[key]) }
}

// ratioOf folds scale · Σnum / Σden over the traced ops.
func ratioOf(scale float64, num, den string) func(*layerStats) float64 {
	return func(s *layerStats) float64 {
		d := s.sum(den)
		if d == 0 {
			return 0
		}
		return scale * s.sum(num) / d
	}
}

// blocking lists, per workload, the sequential layer spans an op's wall
// time divides into; whatever they leave is reported as "other".
var blocking = map[string][]string{
	"contention": {"protean.new_ms", "protean.spawn_ms", "protean.run_ms"},
	"fleet":      {"protean.resolve_ms", "cluster.execute_ms", "cluster.replay_ms"},
	"daemon":     {"server.submit_ms", "cluster.execute_ms", "cluster.replay_ms", "server.result_ms"},
}

// layerOp is one traced op's observations: span durations in ms and
// counters, keyed by metric (or internal helper) name. Every method is a
// no-op on a nil *layerOp, so untraced ops pay nothing but the nil check.
type layerOp map[string]float64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// start returns the time a span begins, or the zero time untraced.
func (lo *layerOp) start() time.Time {
	if lo == nil {
		return time.Time{}
	}
	return time.Now()
}

// span records the time since t under name and returns now, the start
// of the next span.
func (lo *layerOp) span(name string, t time.Time) time.Time {
	if lo == nil {
		return time.Time{}
	}
	now := time.Now()
	lo.add(name, ms(now.Sub(t)))
	return now
}

func (lo *layerOp) add(name string, v float64) {
	if lo != nil {
		(*lo)[name] += v
	}
}

func (lo *layerOp) get(name string) float64 {
	if lo == nil {
		return 0
	}
	return (*lo)[name]
}

// sim records the op's simulation span: the host time the per-instruction
// and per-load costs are computed over.
func (lo *layerOp) sim(v float64) { lo.add("sim_ms", v) }

// session records one session's modeled counters.
func (lo *layerOp) session(res *protean.Result) {
	if lo == nil {
		return
	}
	lo.add("arm.instrs", float64(resultInstrs(res)))
	lo.add("kernel.cis_loads", float64(res.CIS.Loads))
	lo.add("kernel.cis_faults", float64(res.CIS.Faults))
	lo.add("kernel.context_switches", float64(res.Kernel.ContextSwitches))
	lo.add("kernel.config_mb", float64(res.CIS.ConfigBytes)/1e6)
	lo.add("core.hw_dispatches", float64(res.RFU.HWDispatches))
	lo.add("core.aborts", float64(res.RFU.Aborts))
	lo.add("core.state_saves", float64(res.RFU.StateSaves))
	lo.add("tlb1_lookups", float64(res.TLB1.Lookups))
	lo.add("tlb1_misses", float64(res.TLB1.Misses))
}

// fleet records a FleetResult's counters: every admitted job's session
// counters (a lane batch's shared Result counts once per job, as the
// FleetResult aggregates do) plus the dispatcher's. Distinct sessions
// are countable only in-process, where a lane batch's jobs share one
// *Result; a result decoded from the wire has one per job.
func (lo *layerOp) fleet(fr *protean.FleetResult, inProcess bool) {
	if lo == nil {
		return
	}
	sessions := map[*protean.Result]bool{}
	jobs := 0
	for _, j := range fr.Jobs {
		if j.Run == nil {
			continue
		}
		jobs++
		sessions[j.Run] = true
		lo.session(j.Run)
	}
	if inProcess {
		lo.add("cluster.sessions", float64(len(sessions)))
		lo.add("fleet_jobs", float64(jobs))
	}
	lo.add("cluster.cold_loads", float64(fr.ColdLoads))
	lo.add("warm_hits", float64(fr.WarmHits))
	lo.add("placements", float64(fr.WarmHits+fr.ColdLoads))
}

// wireRoundTrip times the wire codec on the ResultOK frame a Result
// reply carries, beside encoding/json on the same FleetResult.
func (lo *layerOp) wireRoundTrip(job uint64, fr *protean.FleetResult) error {
	t := time.Now()
	frame := wire.EncodeMessage(job, wire.ResultOK{Job: job, Fleet: fr})
	t = lo.span("wire.encode_ms", t)
	_, m, err := wire.DecodeMessage(frame)
	if err != nil {
		return fmt.Errorf("wire decode: %w", err)
	}
	t = lo.span("wire.decode_ms", t)
	if _, ok := m.(wire.ResultOK); !ok {
		return fmt.Errorf("wire decode: got %T, want ResultOK", m)
	}
	lo.add("wire.result_kb", float64(len(frame))/1024)
	if _, err := json.Marshal(fr); err != nil {
		return err
	}
	lo.span("protean.marshal_ms", t)
	return nil
}

// resolve times what the daemon does with a submitted spec before it
// starts the job: parse it, then validate it by resolving every field.
func (lo *layerOp) resolve(spec []byte) error {
	t := time.Now()
	if _, err := protean.ReadScenario(bytes.NewReader(spec)); err != nil {
		return err
	}
	lo.span("protean.resolve_ms", t)
	return nil
}

// probeNew times one protean.New with a fleet node's session options:
// the per-session construction cost a fleet pays inside Start, measured
// beside the op because Start's sessions are not reachable from outside.
func (lo *layerOp) probeNew() error {
	t := time.Now()
	if _, err := protean.New(protean.WithScale(scale)); err != nil {
		return err
	}
	lo.span("protean.new_ms", t)
	return nil
}

// layerStats folds the traced ops of one run.
type layerStats struct {
	values     map[string][]float64
	opMS       []float64 // traced op latencies
	gcPerOp    float64
	heapLiveMB float64
	overhead   float64
}

func newLayerStats() *layerStats { return &layerStats{values: map[string][]float64{}} }

func (s *layerStats) fold(lo layerOp, latencyMS float64) {
	for k, v := range lo {
		s.values[k] = append(s.values[k], v)
	}
	s.opMS = append(s.opMS, latencyMS)
}

func (s *layerStats) sum(key string) float64 {
	var t float64
	for _, v := range s.values[key] {
		t += v
	}
	return t
}

// metrics renders every per-layer metric.
func (s *layerStats) metrics() map[string]metricValue {
	out := map[string]metricValue{}
	for _, m := range perLayer {
		out[m.Name] = metricValue{Value: m.fold(s), Unit: m.Unit}
	}
	return out
}

// layerShare is one layer's part of the traced ops' total wall time.
type layerShare struct {
	Layer string  `json:"layer"`
	Share float64 `json:"share"`
}

// breakdown divides the traced ops' wall time among the workload's
// blocking layers, largest first, with the remainder as "other".
func (s *layerStats) breakdown(workload string) []layerShare {
	var total float64
	for _, v := range s.opMS {
		total += v
	}
	if total == 0 {
		return nil
	}
	var out []layerShare
	rest := 1.0
	for _, k := range blocking[workload] {
		share := s.sum(k) / total
		rest -= share
		out = append(out, layerShare{Layer: k, Share: share})
	}
	out = append(out, layerShare{Layer: "other", Share: rest})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Share > out[j].Share })
	return out
}
