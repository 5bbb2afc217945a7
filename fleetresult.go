package protean

import (
	"encoding/json"
	"fmt"
	"io"
)

// NodeResult aggregates one node's fleet activity.
type NodeResult struct {
	Node int
	// Class is the node's execution-profile class (nodes with identical
	// session specs share one class); ClockScale is its clock multiplier
	// relative to the reference workstation.
	Class      int
	ClockScale int
	// Jobs is how many jobs the dispatcher placed here.
	Jobs int
	// Busy is the node's total occupied time: job service plus bitstream
	// fetches.
	Busy uint64
	// ColdLoads counts configurations fetched into this node's bitstream
	// store; WarmHits counts placements that found them already resident.
	ColdLoads, WarmHits uint64
	// FetchCycles is the modeled cost of the cold fetches.
	FetchCycles uint64
	// Completion is the cycle the node finally went idle, 0 if unused.
	Completion uint64
}

// JobResult is one job's fleet outcome: where it ran, its fleet timeline,
// and the full session result of its execution.
type JobResult struct {
	// ID is the submission index.
	ID    int
	Label string
	// Workload is the registry name the job was submitted from.
	Workload string
	// Node is where the dispatcher placed it, -1 when admission control
	// shed it.
	Node int
	// Arrival, Start and Completion are fleet-clock cycles.
	Arrival, Start, Completion uint64
	// ColdLoads, WarmHits and FetchCycles are the job's node bitstream
	// store traffic (see NodeResult).
	ColdLoads, WarmHits uint64
	FetchCycles         uint64
	// Latency is the job's sojourn time, Completion − Arrival: queueing
	// (including any admission deferral) plus fetches plus service. 0
	// for shed jobs.
	Latency uint64
	// Shed reports that admission control rejected the job; Deferred
	// that it waited DeferCycles before placement re-ran.
	Shed        bool
	Deferred    bool
	DeferCycles uint64
	// Run is the job's session result (per-process outcomes, CIS / kernel
	// / RFU statistics); nil for shed jobs.
	Run *Result
}

// LatencyStats summarizes the fleet's sojourn-time distribution over
// admitted jobs: integer mean and nearest-rank percentiles, exactly
// reproducible run to run.
type LatencyStats struct {
	// Jobs is the sample size (admitted jobs).
	Jobs int
	// Mean, P50, P95, P99 and Max are cycles of sojourn time.
	Mean, P50, P95, P99, Max uint64
}

// FleetResult is the structured outcome of a fleet run (Start,
// RunScenario).
type FleetResult struct {
	// Policy names the placement policy that drove the run.
	Policy string
	// Nodes and Jobs break the run down per node and per job.
	Nodes []NodeResult
	Jobs  []JobResult
	// Makespan is the cycle at which the last job completed — the fleet
	// analogue of Result.Completion.
	Makespan uint64
	// Busy is total node-busy time; Makespan × nodes − Busy is idle time.
	Busy uint64
	// ColdLoads and WarmHits count fleet-level configuration placements:
	// cold ones fetched a bitstream into a node store (costing
	// FetchCycles), warm ones found it resident — the traffic placement
	// locality saves.
	ColdLoads, WarmHits uint64
	FetchCycles         uint64
	// Shed and Deferred count admission-control outcomes; DeferCycles
	// sums the deferral waits.
	Shed, Deferred int
	DeferCycles    uint64
	// Latency is the sojourn-time distribution over admitted jobs — the
	// tail the admission bound trades against shed work.
	Latency LatencyStats
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
