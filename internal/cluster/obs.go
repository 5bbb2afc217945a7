package cluster

import (
	"fmt"

	"protean/internal/obs"
)

// Cycle-count histogram buckets shared by the fleet latency metrics:
// 1k cycles up to ~10^9, ×4 per bucket — wide enough for any realistic
// scenario, few enough for a readable exposition.
func fleetBuckets() []uint64 { return obs.ExpBuckets(1024, 4, 10) }

// Observe registers the fleet run's aggregates into r: admission
// outcomes, store traffic, busy/makespan, and sojourn / defer-wait
// histograms over the per-job records. It walks Jobs in submission
// order from serial replay-side code, so repeated runs register
// byte-identical snapshots regardless of the Execute worker count.
func (tr *Trace) Observe(r *obs.Registry) {
	placed := uint64(len(tr.Jobs)) - uint64(tr.Shed)
	r.Counter("protean_fleet_jobs_total", "jobs submitted").Add(uint64(len(tr.Jobs)))
	r.Counter("protean_fleet_placements_total", "jobs placed on a node").Add(placed)
	r.Counter("protean_fleet_shed_total", "jobs rejected by admission control").Add(uint64(tr.Shed))
	r.Counter("protean_fleet_deferred_total", "jobs held back by admission control").Add(uint64(tr.Deferred))
	r.Counter("protean_fleet_defer_cycles_total", "summed deferral waits").Add(tr.DeferCycles)
	r.Counter("protean_fleet_cold_loads_total", "configurations fetched into node stores").Add(tr.ColdLoads)
	r.Counter("protean_fleet_warm_hits_total", "configurations already resident on placement").Add(tr.WarmHits)
	r.Counter("protean_fleet_fetch_cycles_total", "modeled cost of cold fetches").Add(tr.FetchCycles)
	r.Counter("protean_fleet_busy_cycles_total", "node service + fetch cycles").Add(tr.Busy)
	r.Gauge("protean_fleet_makespan_cycles", "cycle the last admitted job completed").Set(int64(tr.Makespan))
	r.Gauge("protean_fleet_nodes", "fleet size").Set(int64(len(tr.Nodes)))

	sojourn := r.Histogram("protean_fleet_sojourn_cycles", "arrival-to-completion per admitted job", fleetBuckets())
	wait := r.Histogram("protean_fleet_defer_wait_cycles", "admission deferral wait per deferred job", fleetBuckets())
	for _, j := range tr.Jobs {
		if j.Shed {
			continue
		}
		sojourn.Observe(j.Completion - j.Arrival)
		if j.Deferred {
			wait.Observe(j.DeferCycles)
		}
	}
}

// Dispatcher events (shed instants, defer-wait spans) render on their
// own track after the per-node tracks.
func (tr *Trace) dispatcherTrack() int { return len(tr.Nodes) }

// EmitChrome renders the fleet timeline into t: one track per node with
// a fetch span (cold configuration traffic) and an exec span per placed
// job, plus a dispatcher track carrying defer-wait spans and shed
// instants. jobs, when non-nil, must be the submission slice the trace
// was replayed from; it annotates exec spans with their Batch id (the
// "batch" arg) so share groups are visible in Perfetto. Jobs are walked
// in submission order — replay-side emission only, so the rendered
// trace is byte-identical at any Execute worker count.
func (tr *Trace) EmitChrome(t *obs.Tracer, jobs []Job) {
	for n, nt := range tr.Nodes {
		t.SetTrackName(n, fmt.Sprintf("node %d (class %d ×%d)", n, nt.Class, nt.ClockScale))
	}
	t.SetTrackName(tr.dispatcherTrack(), "dispatcher")
	for _, j := range tr.Jobs {
		if j.Shed {
			t.Instant(tr.dispatcherTrack(), "admission", "shed "+j.Label, j.Arrival,
				obs.Arg{Key: "job", Val: j.ID})
			continue
		}
		if j.Deferred {
			t.Span(tr.dispatcherTrack(), "admission", "defer "+j.Label, j.Arrival, j.Arrival+j.DeferCycles,
				obs.Arg{Key: "job", Val: j.ID}, obs.Arg{Key: "node", Val: j.Node})
		}
		execStart := j.Start
		if j.FetchCycles > 0 {
			t.Span(j.Node, "fetch", "fetch "+j.Label, j.Start, j.Start+j.FetchCycles,
				obs.Arg{Key: "job", Val: j.ID}, obs.Arg{Key: "cold_loads", Val: j.ColdLoads})
			execStart += j.FetchCycles
		}
		args := []obs.Arg{
			{Key: "job", Val: j.ID},
			{Key: "cycles", Val: j.Cycles},
			{Key: "warm_hits", Val: j.WarmHits},
		}
		if jobs != nil && j.ID < len(jobs) && jobs[j.ID].Batch != 0 {
			args = append(args, obs.Arg{Key: "batch", Val: jobs[j.ID].Batch})
		}
		t.Span(j.Node, "exec", j.Label, execStart, j.Completion, args...)
	}
}
