package fabric

import (
	"fmt"
	"math"
)

// ArraySpec is the geometry of a PFU's CLB array.
type ArraySpec struct {
	W, H int
}

// DefaultPFUSpec is the 500-CLB PFU of the ProteanARM demonstrator (§5 of
// the paper): four of these sit in the reconfigurable function unit.
var DefaultPFUSpec = ArraySpec{W: 25, H: 20}

// CLBs reports the number of CLBs in the array.
func (s ArraySpec) CLBs() int { return s.W * s.H }

// Wire numbering for the PFU-internal routing enumeration. Mux-based
// routing means every routing choice is an index into this space, so no
// configuration can short-circuit the fabric (§4.1: security).
const (
	WireA0   = 0  // input operand a, bits 0..31 -> wires 0..31
	WireB0   = 32 // input operand b, bits 0..31 -> wires 32..63
	WireInit = 64 // the init control signal (§4.4)
	WireCLB0 = 65 // CLB outputs, row-major
)

// NumWires reports the size of the wire enumeration for a spec.
func (s ArraySpec) NumWires() int { return WireCLB0 + s.CLBs() }

// CLB configuration flag bits.
const (
	FlagLUTUsed   = 1 << 0 // the LUT drives logic
	FlagFFUsed    = 1 << 1 // the flip-flop is in use
	FlagFFInit    = 1 << 2 // flip-flop initial value
	FlagOutFF     = 1 << 3 // CLB output = FF Q (registered); else LUT output
	FlagFFFromPin = 1 << 4 // FF D comes from input pin 0 (route-through FF); else from LUT output
)

// CLBConfig is the per-CLB slice of the configuration. InSel values are
// wire indices biased by one (0 = unconnected). Switch carries the
// switchbox routing words; the simulator routes through InSel directly but
// the words are part of the configuration image so that bitstream sizes
// match a Virtex-class fabric (the paper's 54 KB per custom instruction).
type CLBConfig struct {
	Table  uint16
	InSel  [4]uint16
	Flags  uint16
	Switch [24]uint32
}

// ArrayConfig is a full static configuration for one PFU.
type ArrayConfig struct {
	Spec   ArraySpec
	OutSel [33]uint16 // out bits 0..31 then done; wire index + 1, 0 = drive constant 0
	CLBs   []CLBConfig
}

// NewArrayConfig returns an all-unused configuration.
func NewArrayConfig(spec ArraySpec) *ArrayConfig {
	return &ArrayConfig{Spec: spec, CLBs: make([]CLBConfig, spec.CLBs())}
}

// Validate checks that every routing select is within the wire enumeration.
func (c *ArrayConfig) Validate() error {
	if len(c.CLBs) != c.Spec.CLBs() {
		return fmt.Errorf("fabric: config has %d CLBs, spec wants %d", len(c.CLBs), c.Spec.CLBs())
	}
	max := uint16(c.Spec.NumWires())
	for i := range c.CLBs {
		for pin, sel := range c.CLBs[i].InSel {
			if sel > max {
				return fmt.Errorf("fabric: CLB %d pin %d selects wire %d beyond %d", i, pin, sel-1, max-1)
			}
		}
	}
	for i, sel := range c.OutSel {
		if sel > max {
			return fmt.Errorf("fabric: output %d selects wire %d beyond %d", i, sel-1, max-1)
		}
	}
	return nil
}

// PlaceStats reports placement quality.
type PlaceStats struct {
	Cells       int     // CLBs used
	Utilization float64 // cells / array size
	Wirelength  int     // total Manhattan wirelength over all routed pins
	MaxWire     int     // longest single route
}

// cell is a packed placement unit: a LUT, an FF, or a LUT feeding its
// dedicated FF.
type cell struct {
	lut int // index into netlist LUTs, -1 if none
	ff  int // index into netlist FFs, -1 if none
}

// Place maps a netlist onto an array, producing a configuration. The
// netlist must expose the PFU port interface: inputs a[32], b[32], init[1];
// outputs out[32], done[1]. Placement packs each flip-flop with its driving
// LUT when the LUT has no other fanout, places cells in dependency order
// near the centroid of their fanins, and routes through the wire
// enumeration.
func Place(n *Netlist, spec ArraySpec) (*ArrayConfig, *PlaceStats, error) {
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	if err := checkPFUPorts(n); err != nil {
		return nil, nil, err
	}
	topo, err := n.Levelize()
	if err != nil {
		return nil, nil, err
	}

	// Fanout count per net, to decide LUT+FF packing.
	fanout := n.fanout()
	lutOf, _ := n.drivers()

	// Build cells: FFs absorb their driving LUT when it exclusively feeds
	// them.
	lutPacked := make([]bool, len(n.LUTs))
	var cells []cell
	for fi := range n.FFs {
		d := n.FFs[fi].D
		if li := lutOf[d]; li >= 0 && fanout[d] == 1 {
			lutPacked[li] = true
			cells = append(cells, cell{lut: li, ff: fi})
		} else {
			cells = append(cells, cell{lut: -1, ff: fi})
		}
	}
	for li := range n.LUTs {
		if !lutPacked[li] {
			cells = append(cells, cell{lut: li, ff: -1})
		}
	}
	if len(cells) > spec.CLBs() {
		return nil, nil, fmt.Errorf("fabric: circuit %q needs %d CLBs, array has %d", n.Name, len(cells), spec.CLBs())
	}

	// Net -> producing cell index (or input wire).
	producer := make([]int, n.NumNets) // cell index, -1 none
	for i := range producer {
		producer[i] = -1
	}
	for ci, c := range cells {
		if c.lut >= 0 && c.ff < 0 {
			producer[n.LUTs[c.lut].Out] = ci
		}
		if c.ff >= 0 {
			producer[n.FFs[c.ff].Q] = ci
			if c.lut >= 0 {
				producer[n.LUTs[c.lut].Out] = ci // internal, same CLB
			}
		}
	}
	inputWire := make(map[Net]int, 65)
	inputPos := make(map[Net][2]float64, 65)
	for _, p := range n.Ports {
		if p.Dir != DirIn {
			continue
		}
		for bit, net := range p.Nets {
			var w int
			switch p.Name {
			case "a":
				w = WireA0 + bit
			case "b":
				w = WireB0 + bit
			case "init":
				w = WireInit
			}
			inputWire[net] = w
			// Inputs enter on the west edge, spread vertically.
			inputPos[net] = [2]float64{-1, float64(bit%32) * float64(spec.H) / 32}
		}
	}

	// Dependency-ordered placement: process cells so that combinational
	// fanins are placed first (FF-headed cells can be placed any time, so
	// order by LUT topological order with FF cells first).
	order := make([]int, 0, len(cells))
	for ci, c := range cells {
		if c.ff >= 0 {
			order = append(order, ci)
		}
	}
	cellOfLUT := make([]int, len(n.LUTs))
	for ci, c := range cells {
		if c.lut >= 0 {
			cellOfLUT[c.lut] = ci
		}
	}
	for _, li := range topo {
		if !lutPacked[li] {
			order = append(order, cellOfLUT[li])
		}
	}

	free := make([]bool, spec.CLBs())
	for i := range free {
		free[i] = true
	}
	loc := make([]int, len(cells)) // cell -> CLB index
	for i := range loc {
		loc[i] = -1
	}
	pos := func(clb int) (int, int) { return clb % spec.W, clb / spec.W }

	place := func(ci int, wantX, wantY float64) {
		best, bestD := -1, math.MaxFloat64
		for clb := 0; clb < spec.CLBs(); clb++ {
			if !free[clb] {
				continue
			}
			x, y := pos(clb)
			d := math.Abs(float64(x)-wantX) + math.Abs(float64(y)-wantY)
			if d < bestD {
				best, bestD = clb, d
			}
		}
		free[best] = false
		loc[ci] = best
	}

	fanins := func(ci int) []Net {
		var nets []Net
		c := cells[ci]
		if c.lut >= 0 {
			for _, in := range n.LUTs[c.lut].In {
				if in != NilNet {
					nets = append(nets, in)
				}
			}
		}
		if c.ff >= 0 && c.lut < 0 {
			nets = append(nets, n.FFs[c.ff].D)
		}
		return nets
	}

	for _, ci := range order {
		var sx, sy float64
		cnt := 0
		for _, net := range fanins(ci) {
			if p, ok := inputPos[net]; ok {
				sx, sy = sx+p[0], sy+p[1]
				cnt++
			} else if pc := producer[net]; pc >= 0 && loc[pc] >= 0 {
				x, y := pos(loc[pc])
				sx, sy = sx+float64(x), sy+float64(y)
				cnt++
			}
		}
		if cnt == 0 {
			place(ci, float64(spec.W)/2, float64(spec.H)/2)
		} else {
			place(ci, sx/float64(cnt), sy/float64(cnt))
		}
	}

	// wireOf resolves the wire index carrying a net.
	wireOf := func(net Net) (int, error) {
		if w, ok := inputWire[net]; ok {
			return w, nil
		}
		if pc := producer[net]; pc >= 0 {
			return WireCLB0 + loc[pc], nil
		}
		return 0, fmt.Errorf("fabric: net %d has no routable source", net)
	}

	cfg := NewArrayConfig(spec)
	stats := &PlaceStats{Cells: len(cells), Utilization: float64(len(cells)) / float64(spec.CLBs())}

	wirePos := func(w int) (float64, float64) {
		if w >= WireCLB0 {
			x, y := pos(w - WireCLB0)
			return float64(x), float64(y)
		}
		return -1, float64((w%32)%32) * float64(spec.H) / 32
	}
	route := func(clb int, pin int, w int) {
		x, y := pos(clb)
		wx, wy := wirePos(w)
		d := int(math.Abs(float64(x)-wx) + math.Abs(float64(y)-wy))
		stats.Wirelength += d
		if d > stats.MaxWire {
			stats.MaxWire = d
		}
		// Fill a deterministic switchbox word per routed pin so the static
		// image carries routing payload of realistic size.
		cc := &cfg.CLBs[clb]
		cc.Switch[pin*6%24] = uint32(w)<<16 | uint32(clb)&0xFFFF ^ 0x5A5A0000
	}

	for ci, c := range cells {
		clb := loc[ci]
		cc := &cfg.CLBs[clb]
		if c.lut >= 0 {
			l := &n.LUTs[c.lut]
			cc.Flags |= FlagLUTUsed
			cc.Table = l.Table
			for pin, in := range l.In {
				if in == NilNet {
					continue
				}
				w, err := wireOf(in)
				if err != nil {
					return nil, nil, err
				}
				cc.InSel[pin] = uint16(w + 1)
				route(clb, pin, w)
			}
		}
		if c.ff >= 0 {
			f := &n.FFs[c.ff]
			cc.Flags |= FlagFFUsed | FlagOutFF
			if f.Init {
				cc.Flags |= FlagFFInit
			}
			if c.lut < 0 {
				cc.Flags |= FlagFFFromPin
				w, err := wireOf(f.D)
				if err != nil {
					return nil, nil, err
				}
				cc.InSel[0] = uint16(w + 1)
				route(clb, 0, w)
			}
		}
	}

	// Output selects.
	for _, p := range n.Ports {
		if p.Dir != DirOut {
			continue
		}
		for bit, net := range p.Nets {
			w, err := wireOf(net)
			if err != nil {
				return nil, nil, err
			}
			var idx int
			switch p.Name {
			case "out":
				idx = bit
			case "done":
				idx = 32
			}
			cfg.OutSel[idx] = uint16(w + 1)
		}
	}
	return cfg, stats, nil
}

func checkPFUPorts(n *Netlist) error {
	want := []struct {
		name  string
		dir   PortDir
		width int
	}{
		{"a", DirIn, 32},
		{"b", DirIn, 32},
		{"init", DirIn, 1},
		{"out", DirOut, 32},
		{"done", DirOut, 1},
	}
	for _, w := range want {
		p, ok := n.PortByName(w.name)
		if !ok {
			return fmt.Errorf("fabric: circuit %q missing PFU port %q", n.Name, w.name)
		}
		if p.Dir != w.dir || len(p.Nets) != w.width {
			return fmt.Errorf("fabric: circuit %q port %q has wrong shape", n.Name, w.name)
		}
	}
	return nil
}
