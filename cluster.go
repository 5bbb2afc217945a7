package protean

import (
	"protean/internal/cluster"
	"protean/internal/core"
)

// ConfigKey is the content identity of one circuit configuration — the
// static bitstream hash for gate-level images (see core.ConfigKey).
// The cluster dispatcher uses it as the placement-affinity key.
type ConfigKey = core.ConfigKey

// PlacementPolicy decides which simulated node runs each submitted
// cluster job. Implementations must be deterministic given the fleet view
// (see internal/cluster); the built-ins below cover the paper-adjacent
// spectrum from locality-oblivious to configuration-aware.
type PlacementPolicy = cluster.PlacementPolicy

// Built-in placement policies. PlaceAffinity prefers the node whose
// bitstream store already holds the job's configurations, keyed by
// ConfigKey — the paper's configuration-locality cost turned into a
// placement signal.
var (
	PlaceRoundRobin  = cluster.RoundRobin()
	PlaceRandom      = cluster.Random()
	PlaceLeastLoaded = cluster.LeastLoaded()
	PlaceAffinity    = cluster.Affinity()
)

// PlaceWeightedAffinity is the locality-vs-balance hybrid: each node is
// scored weight·affinityHits − backlogCycles and the maximum wins, so
// warm configurations attract work until the queue-length difference
// outweighs them. weight is cycles per warm configuration; 0 means
// DefaultAffinityWeight. In a PlacementSpec this is policy
// "weighted-affinity" with the weight in PlacementSpec.Weight.
func PlaceWeightedAffinity(weight uint64) PlacementPolicy {
	return cluster.WeightedAffinity(weight)
}

// Placements lists the built-in placement policies in sweep order.
func Placements() []PlacementPolicy { return cluster.Policies() }

// ParsePlacement resolves a placement policy by name, accepting the short
// command-line spellings "rr", "ll", "affinity" and "wa".
func ParsePlacement(s string) (PlacementPolicy, error) { return cluster.ParsePlacement(s) }

// addCIS, addKernel and addRFU fold one job's session statistics into the
// fleet aggregate. Max-style fields (IRQ latency) take the fleet maximum;
// everything else sums.
func addCIS(dst *CISStats, s CISStats) {
	dst.Faults += s.Faults
	dst.MappingFaults += s.MappingFaults
	dst.Loads += s.Loads
	dst.Restores += s.Restores
	dst.Evictions += s.Evictions
	dst.SoftMaps += s.SoftMaps
	dst.ShareHits += s.ShareHits
	dst.ConfigBytes += s.ConfigBytes
	dst.ConfigCycles += s.ConfigCycles
	dst.PageIns += s.PageIns
}

func addKernel(dst *KernelStats, s KernelStats) {
	dst.ContextSwitches += s.ContextSwitches
	dst.TimerIRQs += s.TimerIRQs
	dst.Syscalls += s.Syscalls
	dst.Kills += s.Kills
	dst.KernelCycles += s.KernelCycles
	if s.MaxIRQLatency > dst.MaxIRQLatency {
		dst.MaxIRQLatency = s.MaxIRQLatency
	}
	dst.SumIRQLatency += s.SumIRQLatency
}

func addRFU(dst *RFUStats, s RFUStats) {
	dst.HWDispatches += s.HWDispatches
	dst.SWDispatches += s.SWDispatches
	dst.Faults += s.Faults
	dst.Completions += s.Completions
	dst.Aborts += s.Aborts
	dst.ExecCycles += s.ExecCycles
	dst.ConfigLoads += s.ConfigLoads
	dst.StateSaves += s.StateSaves
	dst.StateRestores += s.StateRestores
}
