package fabric

// Static timing analysis over array configurations. The fabric's delay
// model is the one the rest of the repo already speaks: unit delay per
// LUT level (fabric.Lint's Stats.Depth and the clock_scale modeling in
// the cluster layer both count levels), so Timing refines the single
// depth number into per-endpoint critical paths, slack against the
// slowest path, and a depth histogram — the static cost estimate a
// scheduler can read before ever loading the bitstream.

import (
	"fmt"
	"strings"
)

// TimingPath is the critical (longest) combinational path to one timing
// endpoint: an output tap ("out"/"done") or a flip-flop D pin ("ff",
// Bit = CLB index). Depth counts LUT levels; a registered or directly
// tapped input has depth 0. Path lists the CLB indices of the LUTs
// along the path, source first — the explicit element trail, like the
// lint cycle reporter.
type TimingPath struct {
	Port  string
	Bit   int
	Depth int
	Slack int // MaxDepth - Depth
	Path  []int
}

// Endpoint renders the endpoint name.
func (p *TimingPath) Endpoint() string {
	if p.Port == "done" {
		return "done"
	}
	return fmt.Sprintf("%s[%d]", p.Port, p.Bit)
}

// PathString renders the critical path as an explicit CLB trail.
func (p *TimingPath) PathString() string {
	if len(p.Path) == 0 {
		return "(no combinational logic)"
	}
	var b strings.Builder
	for i, clb := range p.Path {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "CLB %d", clb)
	}
	return b.String()
}

// TimingReport is the full static timing picture of one configuration.
// MaxDepth is the depth fabric.LintConfig reports: both read it from the
// one levelizing walk, as the maximum over every used LUT whether or not
// it reaches an endpoint, so the two analyses can never disagree about
// the critical depth.
type TimingReport struct {
	Name      string
	MaxDepth  int
	LUTs      int          // used LUTs (the timed elements)
	Endpoints []TimingPath // out[0..31], done, then ff endpoints by CLB
	Histogram []int        // Histogram[d] = used LUTs at depth d; [0] unused
}

// Critical returns the endpoint with the least slack (ties: first in
// endpoint order), or nil for a configuration with no endpoints.
func (r *TimingReport) Critical() *TimingPath {
	var worst *TimingPath
	for i := range r.Endpoints {
		if worst == nil || r.Endpoints[i].Depth > worst.Depth {
			worst = &r.Endpoints[i]
		}
	}
	return worst
}

// String renders a summary: header, histogram, and the critical
// endpoint with its explicit path.
func (r *TimingReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "timing %s: depth %d, %d LUTs, %d endpoints", r.Name, r.MaxDepth, r.LUTs, len(r.Endpoints))
	if len(r.Histogram) > 1 {
		b.WriteString("\n  levels:")
		for d := 1; d < len(r.Histogram); d++ {
			fmt.Fprintf(&b, " %d:%d", d, r.Histogram[d])
		}
	}
	if crit := r.Critical(); crit != nil && crit.Depth > 0 {
		fmt.Fprintf(&b, "\n  critical %s depth %d: %s", crit.Endpoint(), crit.Depth, crit.PathString())
	}
	return b.String()
}

// Timing statically analyzes a configuration's combinational delay:
// per-endpoint critical paths, slack and the depth histogram, under the
// unit-delay-per-LUT model. Configurations with combinational cycles
// have no static delay and are rejected with the levelizer's error.
func Timing(cfg *ArrayConfig) (*TimingReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Per-CLB depth comes from the levelizing walk itself, the same
	// numbers LintConfig reports: a used LUT is one level past its
	// deepest combinational source; registered and input sources are
	// depth 0. pred records the source CLB achieving the maximum, for
	// path reconstruction.
	lv, err := levelizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	ncl := cfg.Spec.CLBs()
	depth, pred := lv.depth, lv.pred
	r := &TimingReport{Name: "config", MaxDepth: lv.max}
	r.Histogram = make([]int, r.MaxDepth+1)
	for i := 0; i < ncl; i++ {
		if cfg.CLBs[i].Flags&FlagLUTUsed != 0 {
			r.LUTs++
			r.Histogram[depth[i]]++
		}
	}

	// wireArrival: the depth of a routed wire at a consumer, and the
	// combinational CLB (if any) driving it.
	wireArrival := func(w int) (int, int) {
		if w < WireCLB0 {
			return 0, -1 // input wire, constant 0, or unconnected
		}
		src := w - WireCLB0
		c := &cfg.CLBs[src]
		if c.Flags&FlagLUTUsed != 0 && c.Flags&FlagOutFF == 0 {
			return depth[src], src
		}
		return 0, -1 // registered output or unused CLB
	}
	tracePath := func(clb int) []int {
		var rev []int
		for i := clb; i >= 0; i = pred[i] {
			rev = append(rev, i)
		}
		for l, h := 0, len(rev)-1; l < h; l, h = l+1, h-1 {
			rev[l], rev[h] = rev[h], rev[l]
		}
		return rev
	}
	addEndpoint := func(port string, bit, d, srcCLB int) {
		p := TimingPath{Port: port, Bit: bit, Depth: d}
		if srcCLB >= 0 {
			p.Path = tracePath(srcCLB)
		}
		r.Endpoints = append(r.Endpoints, p)
	}

	// Output-tap endpoints, then flip-flop D endpoints in CLB order.
	for i, sel := range cfg.OutSel {
		if sel == 0 {
			continue
		}
		k := pfuOutKey(i)
		d, src := wireArrival(int(sel) - 1)
		addEndpoint(k.Port, k.Bit, d, src)
	}
	for i := 0; i < ncl; i++ {
		c := &cfg.CLBs[i]
		if c.Flags&FlagFFUsed == 0 {
			continue
		}
		switch {
		case c.Flags&FlagFFFromPin != 0:
			d, src := wireArrival(int(c.InSel[0]) - 1)
			addEndpoint("ff", i, d, src)
		case c.Flags&FlagLUTUsed != 0:
			// The LUT feeds the register internally; the LUT itself is
			// the last element on the path.
			addEndpoint("ff", i, depth[i], i)
		}
	}
	for i := range r.Endpoints {
		r.Endpoints[i].Slack = r.MaxDepth - r.Endpoints[i].Depth
	}
	return r, nil
}
