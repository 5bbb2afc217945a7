package protean

import (
	"fmt"
	"io"

	"protean/internal/cluster"
	"protean/internal/core"
	"protean/internal/memo"
	"protean/internal/obs"
	"protean/internal/trace"
)

// Metrics is a deterministic, stable-sorted metrics snapshot: the run's
// counters, gauges and fixed-bucket integer histograms, sorted by name.
// Snapshots marshal to stable JSON (MarshalJSON), render in the
// Prometheus text exposition format (WriteProm), and subtract
// (Diff) / combine (Merge) pairwise by metric name. Everything in a
// snapshot is a modeled quantity — simulated cycles and event counts,
// no floats, no wall clock — built from serial replay-side code, so two
// runs of the same spec produce byte-identical snapshots at any worker
// count. Host-side counters that cannot satisfy that contract live in
// HostMetrics instead.
type Metrics = obs.Snapshot

// MetricPoint is one entry in a Metrics snapshot.
type MetricPoint = obs.Metric

// HostMetrics snapshots the host-side process-wide caches: workload
// template, assembled program and compiled circuit-program hit rates.
// These are real process counters — which goroutine wins a build race
// depends on scheduling — so unlike Result.Metrics the values are NOT
// deterministic across worker counts; use them for cache-efficiency
// observability, never in byte-identity comparisons.
func HostMetrics() Metrics {
	r := obs.NewRegistry()
	observeCache(r, "protean_host_template_cache", templateCache.Stats())
	observeCache(r, "protean_host_asm_cache", asmCache.Stats())
	observeCache(r, "protean_host_program_cache", core.ProgramCacheStats())
	return r.Snapshot()
}

func observeCache(r *obs.Registry, prefix string, s memo.CacheStats) {
	r.Counter(prefix+"_hits_total", "cache hits").Add(s.Hits)
	r.Counter(prefix+"_misses_total", "cache misses (builds)").Add(s.Misses)
	r.Gauge(prefix+"_entries", "cached entries").Set(int64(s.Entries))
}

func observeTLB(r *obs.Registry, prefix string, s TLBStats) {
	r.Counter(prefix+"_lookups_total", "dispatch CAM probes").Add(s.Lookups)
	r.Counter(prefix+"_misses_total", "dispatch CAM misses").Add(s.Misses)
}

// cycleBuckets are the cycle-count histogram buckets of the session and
// fleet metrics: 1k up to ~10^9, ×4 per bucket — wide enough for any
// realistic scenario, few enough for a readable exposition.
func cycleBuckets() []uint64 { return obs.ExpBuckets(1024, 4, 10) }

// metricsSnapshot registers the finished session's statistics into a
// fresh registry — kernel, CIS, RFU, both dispatch TLBs, and per-process
// sojourn times — and snapshots it. Runs on the single Run goroutine
// after the simulation, so the bytes depend only on the modeled run.
func (s *Session) metricsSnapshot(res *Result) *Metrics {
	r := obs.NewRegistry()
	res.Kernel.Observe(r)
	res.CIS.Observe(r)
	res.RFU.Observe(r)
	observeTLB(r, "protean_tlb1", res.TLB1)
	observeTLB(r, "protean_tlb2", res.TLB2)
	r.Gauge("protean_session_cycles", "total simulated machine time").Set(int64(res.Cycles))
	r.Counter("protean_session_procs_total", "processes spawned").Add(uint64(len(res.Procs)))
	soj := r.Histogram("protean_session_sojourn_cycles", "first-dispatch-to-exit per process", cycleBuckets())
	for _, pr := range res.Procs {
		soj.Observe(pr.Completion - pr.Start)
	}
	if s.tl != nil {
		r.Counter("protean_trace_events_dropped_total", "kernel events lost to ring overflow").Add(s.tl.Dropped())
	}
	snap := r.Snapshot()
	return &snap
}

// ringEventCat buckets kernel event kinds into Chrome trace categories.
func ringEventCat(k trace.Kind) string {
	switch k {
	case trace.EvSpawn, trace.EvExit, trace.EvSwitch, trace.EvTimer, trace.EvKill:
		return "sched"
	case trace.EvFault, trace.EvSoftMap, trace.EvMapInstall:
		return "dispatch"
	case trace.EvConfigLoad, trace.EvStateSave, trace.EvStateRestore, trace.EvEvict:
		return "config"
	}
	return "kernel"
}

// writeChromeTrace renders the session timeline as Chrome trace-event
// JSON: one track per process carrying its sojourn span (first dispatch
// to exit) plus an instant for every kernel event the trace ring
// retained, and a truncation warning when the ring overflowed. Runs on
// the single Run goroutine — replay-side emission only.
func (s *Session) writeChromeTrace(w io.Writer, res *Result) error {
	t := obs.NewTracer()
	for _, pr := range res.Procs {
		track := int(pr.PID)
		t.SetTrackName(track, fmt.Sprintf("pid %d %s", pr.PID, pr.Name))
		t.Span(track, "proc", pr.Name, pr.Start, pr.Completion,
			obs.Arg{Key: "workload", Val: pr.Workload},
			obs.Arg{Key: "switches", Val: pr.Switches},
			obs.Arg{Key: "faults", Val: pr.Faults})
	}
	if s.tl != nil {
		for _, e := range s.tl.Events() {
			args := []obs.Arg{}
			if e.Note != "" {
				args = append(args, obs.Arg{Key: "note", Val: e.Note})
			}
			t.Instant(int(e.PID), ringEventCat(e.Kind), e.Kind.String(), e.Cycle, args...)
		}
		t.NoteDropped(s.tl.Dropped())
	}
	return t.WriteChromeTrace(w)
}

// fleetMetrics registers the replayed fleet's statistics into a fresh
// registry — the dispatcher aggregates (placements, store traffic,
// admission outcomes, sojourn/defer-wait histograms over the job rows in
// submission order) plus the summed per-job session statistics — and
// snapshots it. Runs on the serial replay goroutine, so the bytes are
// byte-identical at any Execute worker count.
func fleetMetrics(fr *FleetResult) *Metrics {
	r := obs.NewRegistry()
	placed := uint64(len(fr.Jobs)) - uint64(fr.Shed)
	r.Counter("protean_fleet_jobs_total", "jobs submitted").Add(uint64(len(fr.Jobs)))
	r.Counter("protean_fleet_placements_total", "jobs placed on a node").Add(placed)
	r.Counter("protean_fleet_shed_total", "jobs rejected by admission control").Add(uint64(fr.Shed))
	r.Counter("protean_fleet_deferred_total", "jobs held back by admission control").Add(uint64(fr.Deferred))
	r.Counter("protean_fleet_defer_cycles_total", "summed deferral waits").Add(fr.DeferCycles)
	r.Counter("protean_fleet_cold_loads_total", "configurations fetched into node stores").Add(fr.ColdLoads)
	r.Counter("protean_fleet_warm_hits_total", "configurations already resident on placement").Add(fr.WarmHits)
	r.Counter("protean_fleet_fetch_cycles_total", "modeled cost of cold fetches").Add(fr.FetchCycles)
	r.Counter("protean_fleet_busy_cycles_total", "node service + fetch cycles").Add(fr.Busy)
	r.Gauge("protean_fleet_makespan_cycles", "cycle the last admitted job completed").Set(int64(fr.Makespan))
	r.Gauge("protean_fleet_nodes", "fleet size").Set(int64(len(fr.Nodes)))
	sojourn := r.Histogram("protean_fleet_sojourn_cycles", "arrival-to-completion per admitted job", cycleBuckets())
	wait := r.Histogram("protean_fleet_defer_wait_cycles", "admission deferral wait per deferred job", cycleBuckets())
	var t1, t2 TLBStats
	for _, j := range fr.Jobs {
		if j.Shed {
			continue
		}
		sojourn.Observe(j.Latency)
		if j.Deferred {
			wait.Observe(j.DeferCycles)
		}
		if j.Run == nil {
			continue
		}
		t1.Lookups += j.Run.TLB1.Lookups
		t1.Misses += j.Run.TLB1.Misses
		t2.Lookups += j.Run.TLB2.Lookups
		t2.Misses += j.Run.TLB2.Misses
	}
	fr.Kernel.Observe(r)
	fr.CIS.Observe(r)
	fr.RFU.Observe(r)
	observeTLB(r, "protean_tlb1", t1)
	observeTLB(r, "protean_tlb2", t2)
	snap := r.Snapshot()
	return &snap
}

// emitFleetChrome renders the fleet timeline into t: one track per node
// with a fetch span (cold configuration traffic) and an exec span per
// placed job, plus a dispatcher track after the node tracks carrying
// defer-wait spans and shed instants. jobs is the submission table the
// fleet was replayed from; its Batch ids (the "batch" arg) make share
// groups visible in Perfetto. Jobs are walked in submission order —
// replay-side emission only, so the rendered trace is byte-identical at
// any Execute worker count.
func emitFleetChrome(t *obs.Tracer, fr *FleetResult, jobs []cluster.Job) {
	for _, nr := range fr.Nodes {
		t.SetTrackName(nr.Node, fmt.Sprintf("node %d (class %d ×%d)", nr.Node, nr.Class, nr.ClockScale))
	}
	dispatcher := len(fr.Nodes)
	t.SetTrackName(dispatcher, "dispatcher")
	for _, j := range fr.Jobs {
		if j.Shed {
			t.Instant(dispatcher, "admission", "shed "+j.Label, j.Arrival,
				obs.Arg{Key: "job", Val: j.ID})
			continue
		}
		if j.Deferred {
			t.Span(dispatcher, "admission", "defer "+j.Label, j.Arrival, j.Arrival+j.DeferCycles,
				obs.Arg{Key: "job", Val: j.ID}, obs.Arg{Key: "node", Val: j.Node})
		}
		execStart := j.Start + j.FetchCycles
		if j.FetchCycles > 0 {
			t.Span(j.Node, "fetch", "fetch "+j.Label, j.Start, execStart,
				obs.Arg{Key: "job", Val: j.ID}, obs.Arg{Key: "cold_loads", Val: j.ColdLoads})
		}
		t.Span(j.Node, "exec", j.Label, execStart, j.Completion,
			obs.Arg{Key: "job", Val: j.ID},
			obs.Arg{Key: "cycles", Val: j.Completion - execStart},
			obs.Arg{Key: "warm_hits", Val: j.WarmHits},
			obs.Arg{Key: "batch", Val: jobs[j.ID].Batch})
	}
}
