package core

import "protean/internal/obs"

// Observe registers the RFU aggregates into r. Called from serial
// replay-side code, never from the dispatch hot path.
func (s Stats) Observe(r *obs.Registry) {
	r.Counter("protean_rfu_hw_dispatches_total", "CDPs resolved to a PFU").Add(s.HWDispatches)
	r.Counter("protean_rfu_sw_dispatches_total", "CDPs resolved to a software alternative").Add(s.SWDispatches)
	r.Counter("protean_rfu_faults_total", "CDPs that missed both TLBs").Add(s.Faults)
	r.Counter("protean_rfu_completions_total", "custom instructions that raised done").Add(s.Completions)
	r.Counter("protean_rfu_aborts_total", "custom instructions interrupted mid-flight").Add(s.Aborts)
	r.Counter("protean_rfu_exec_cycles_total", "cycles clocking PFUs").Add(s.ExecCycles)
	r.Counter("protean_rfu_config_loads_total", "full static configurations loaded").Add(s.ConfigLoads)
	r.Counter("protean_rfu_state_saves_total", "state frame groups read back").Add(s.StateSaves)
	r.Counter("protean_rfu_state_restores_total", "state frame groups loaded").Add(s.StateRestores)
}
