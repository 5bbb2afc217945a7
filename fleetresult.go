package protean

import (
	"encoding/json"
	"fmt"
	"io"

	"protean/internal/cluster"
)

// NodeResult aggregates one node's fleet activity.
type NodeResult = cluster.NodeResult

// LatencyStats summarizes the fleet's sojourn-time distribution over
// admitted jobs: integer mean and nearest-rank percentiles, exactly
// reproducible run to run.
type LatencyStats = cluster.LatencyStats

// JobResult is one job's fleet outcome: where it ran, its fleet timeline
// and store traffic (the embedded cluster.Placement: Node, Arrival,
// Start, Completion, ColdLoads, WarmHits, FetchCycles, Latency, Shed,
// Deferred, DeferCycles), and the full session result of its execution.
type JobResult struct {
	// ID is the submission index.
	ID    int
	Label string
	// Workload is the registry name the job was submitted from.
	Workload string
	cluster.Placement
	// Run is the job's session result (per-process outcomes, CIS / kernel
	// / RFU statistics); nil for shed jobs.
	Run *Result
}

// FleetResult is the structured outcome of a fleet run (Start,
// RunScenario).
type FleetResult struct {
	// Policy names the placement policy that drove the run.
	Policy string
	// Nodes and Jobs break the run down per node and per job.
	Nodes []NodeResult
	Jobs  []JobResult
	// Totals are the dispatcher's aggregates: Makespan (the cycle the
	// last job completed — the fleet analogue of Result.Completion),
	// Busy, the ColdLoads / WarmHits / FetchCycles store traffic, the
	// Shed / Deferred / DeferCycles admission outcomes and the Latency
	// distribution over admitted jobs.
	cluster.Totals
	// CIS, Kernel and RFU aggregate every admitted job session's
	// statistics (sums; Kernel.MaxIRQLatency is the fleet maximum).
	CIS    CISStats
	Kernel KernelStats
	RFU    RFUStats
	// Metrics is the run's deterministic metrics snapshot, when
	// Scenario.Metrics enabled it; nil otherwise.
	Metrics *Metrics `json:"metrics,omitempty"`
}

// ConfigLoads returns the total full configuration loads anywhere in the
// fleet: every in-session CIS load plus every cold bitstream fetch into a
// node store. This is the quantity configuration-affinity placement
// minimizes — the paper's Figure-2 cost at fleet scale.
func (r *FleetResult) ConfigLoads() uint64 { return r.CIS.Loads + r.ColdLoads }

// Err returns nil when every admitted job's session verified cleanly,
// and an error naming the first failing job otherwise. Shed jobs carry
// no session result and are not failures — consult Shed for them.
func (r *FleetResult) Err() error {
	for _, j := range r.Jobs {
		if j.Shed {
			continue
		}
		if j.Run == nil {
			return fmt.Errorf("protean: job %d (%s) has no session result", j.ID, j.Label)
		}
		if err := j.Run.Err(); err != nil {
			return fmt.Errorf("protean: job %d (%s) on node %d: %w", j.ID, j.Label, j.Node, err)
		}
	}
	return nil
}

// Job returns the result for a job by submission index. Jobs are stored
// in submission order, so this is just a checked index.
func (r *FleetResult) Job(id int) (JobResult, bool) {
	if id < 0 || id >= len(r.Jobs) {
		return JobResult{}, false
	}
	return r.Jobs[id], true
}

// Table returns the per-job fleet outcomes as a tabular dataset — the
// rows WriteCSV serializes, through the same Table path the experiment
// figures use.
func (r *FleetResult) Table() *Table {
	t := &Table{Header: []string{
		"job", "label", "workload", "node", "arrival", "start", "completion",
		"cold_loads", "warm_hits", "fetch_cycles", "session_cycles", "session_loads", "ok",
		"latency", "shed",
	}}
	for _, j := range r.Jobs {
		var cycles, loads uint64
		ok := false
		if j.Run != nil {
			cycles, loads = j.Run.Cycles, j.Run.CIS.Loads
			ok = j.Run.Err() == nil
		}
		t.AddRow(j.ID, j.Label, j.Workload, j.Node, j.Arrival, j.Start, j.Completion,
			j.ColdLoads, j.WarmHits, j.FetchCycles, cycles, loads, ok,
			j.Latency, j.Shed)
	}
	return t
}

// WriteCSV writes the per-job fleet outcomes as CSV.
func (r *FleetResult) WriteCSV(w io.Writer) error { return r.Table().WriteCSV(w) }

// MarshalJSON renders the fleet result with its derived quantities
// attached: the FleetResult fields plus "config_loads" (ConfigLoads) and
// "error" (Err's message, "" on success).
func (r *FleetResult) MarshalJSON() ([]byte, error) {
	type plain FleetResult // drop the method set to avoid recursion
	return json.Marshal(struct {
		*plain
		ConfigLoads uint64 `json:"config_loads"`
		Error       string `json:"error"`
	}{(*plain)(r), r.ConfigLoads(), errString(r.Err())})
}
