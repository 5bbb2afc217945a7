// Package fabric simulates the Field Programmable Logic resource of the
// Proteus architecture: a Virtex-like array of configurable logic blocks
// (CLBs), each a 4-input LUT plus an optional D flip-flop, joined by
// mux-based routing.
//
// Following §4.1 of the paper the fabric has no I/O blocks (PFUs connect
// only to the processor datapath, removing the pin-driving security threat)
// and no block RAM (application state belongs in the register file or main
// memory, so only CLB registers hold state). Mux-based routing means a
// configuration can never create a short circuit: every routing choice is an
// index into a wire enumeration, and any index decodes to a legal circuit.
//
// The package provides:
//
//   - a structural netlist model (LUTs, flip-flops, named ports),
//   - a Builder for constructing circuits gate by gate with word-level
//     helpers (adders, muxes, comparators),
//   - a functional netlist simulator,
//   - placement of netlists onto a CLB array,
//   - the static bitstream of §4.1's split configuration (LUT truth
//     tables, routing selects, switchbox words), and the size of its
//     state frames (flip-flop contents only), so the OS is charged just
//     the 63-byte state of a 500-CLB PFU on a swap instead of the full
//     54 KB configuration,
//   - a configured-array simulator implementing the PFU execution protocol
//     (init in, done out) of §4.4.
package fabric

import "fmt"

// Net identifies a single wire in a netlist. NilNet marks an unconnected
// input.
type Net int32

// NilNet is the absent net.
const NilNet Net = -1

// PortDir distinguishes input from output ports.
type PortDir int

// Port directions.
const (
	DirIn PortDir = iota
	DirOut
)

// Port is a named bundle of nets at the netlist boundary. Bit 0 of a
// multi-bit port is the least significant bit.
type Port struct {
	Name string
	Dir  PortDir
	Nets []Net
}

// LUT is a lookup table with up to four inputs. Unused inputs are NilNet and
// must be trailing. The truth table is indexed by the input bits, input 0 as
// bit 0 of the index. A LUT with zero used inputs is a constant driver.
type LUT struct {
	In    [4]Net
	Table uint16
	Out   Net
}

// NumIn reports the number of connected inputs.
func (l *LUT) NumIn() int {
	n := 0
	for _, in := range l.In {
		if in != NilNet {
			n++
		}
	}
	return n
}

// Eval computes the LUT output for the given input bit values; vals is
// indexed by net.
func (l *LUT) Eval(vals []bool) bool {
	idx := 0
	for i, in := range l.In {
		if in != NilNet && vals[in] {
			idx |= 1 << i
		}
	}
	return l.Table>>idx&1 != 0
}

// FF is a D flip-flop. Q takes Init at configuration time and D on each
// rising clock edge.
type FF struct {
	D    Net
	Q    Net
	Init bool
}

// Netlist is a flattened structural circuit: LUTs and flip-flops over a
// shared net space, with named boundary ports.
type Netlist struct {
	Name    string
	NumNets int
	Ports   []Port
	LUTs    []LUT
	FFs     []FF
}

// PortByName returns the named port.
func (n *Netlist) PortByName(name string) (Port, bool) {
	for _, p := range n.Ports {
		if p.Name == name {
			return p, true
		}
	}
	return Port{}, false
}

// Stats summarises netlist resource usage.
type Stats struct {
	LUTs, FFs, Nets int
	Depth           int // combinational depth in LUT levels
}

// Stats computes resource usage; depth requires a levelizable netlist and is
// 0 otherwise.
func (n *Netlist) Stats() Stats {
	return Stats{LUTs: len(n.LUTs), FFs: len(n.FFs), Nets: n.NumNets, Depth: n.levels().max}
}

// driverKind classifies what drives each net, for validation.
type driverKind int8

const (
	drvNone driverKind = iota
	drvLUT
	drvFF
	drvInput
)

// Validate checks structural sanity: every net has at most one driver, port
// nets are in range, LUT inputs are trailing-NilNet, and every LUT input and
// FF D is driven.
func (n *Netlist) Validate() error {
	if n.NumNets < 0 {
		return fmt.Errorf("fabric: netlist %q: negative net count", n.Name)
	}
	drv := make([]driverKind, n.NumNets)
	// Labels are formatted only on the error paths: Validate runs on every
	// netlist a circuit library builds.
	label := func(k driverKind, i int) string {
		switch k {
		case drvLUT:
			return fmt.Sprintf("LUT %d", i)
		case drvFF:
			return fmt.Sprintf("FF %d", i)
		}
		return "input port " + n.Ports[i].Name
	}
	// claim records k (element i of its kind) as net's driver.
	claim := func(net Net, k driverKind, i int) error {
		if net < 0 || int(net) >= n.NumNets {
			return fmt.Errorf("fabric: netlist %q: %s drives out-of-range net %d", n.Name, label(k, i), net)
		}
		if drv[net] != drvNone {
			return fmt.Errorf("fabric: netlist %q: net %d multiply driven (%s)", n.Name, net, label(k, i))
		}
		drv[net] = k
		return nil
	}
	for i, p := range n.Ports {
		if p.Dir != DirIn {
			continue
		}
		for _, net := range p.Nets {
			if err := claim(net, drvInput, i); err != nil {
				return err
			}
		}
	}
	for i := range n.LUTs {
		if err := claim(n.LUTs[i].Out, drvLUT, i); err != nil {
			return err
		}
	}
	for i := range n.FFs {
		if err := claim(n.FFs[i].Q, drvFF, i); err != nil {
			return err
		}
	}
	// unread reports why net cannot be read ("out-of-range" or
	// "undriven"), or "" when it can.
	unread := func(net Net) string {
		switch {
		case net == NilNet:
			return ""
		case net < 0 || int(net) >= n.NumNets:
			return "out-of-range"
		case drv[net] == drvNone:
			return "undriven"
		}
		return ""
	}
	for i := range n.LUTs {
		seenNil := false
		for j, in := range n.LUTs[i].In {
			if in == NilNet {
				seenNil = true
				continue
			}
			if seenNil {
				return fmt.Errorf("fabric: netlist %q: LUT %d has non-trailing unconnected input %d", n.Name, i, j)
			}
			if why := unread(in); why != "" {
				return fmt.Errorf("fabric: netlist %q: LUT %d input %d reads %s net %d", n.Name, i, j, why, in)
			}
		}
	}
	for i := range n.FFs {
		if why := unread(n.FFs[i].D); why != "" {
			return fmt.Errorf("fabric: netlist %q: FF %d D reads %s net %d", n.Name, i, why, n.FFs[i].D)
		}
	}
	for _, p := range n.Ports {
		if p.Dir != DirOut {
			continue
		}
		for b, net := range p.Nets {
			if why := unread(net); why != "" {
				return fmt.Errorf("fabric: netlist %q: output port %s bit %d reads %s net %d", n.Name, p.Name, b, why, net)
			}
		}
	}
	return nil
}

// Levelize returns LUT indices in combinational evaluation order, or an
// error if the combinational logic contains a cycle. Flip-flop outputs and
// input ports are sources and break cycles.
func (n *Netlist) Levelize() ([]int, error) {
	lv := n.levels()
	if len(lv.cycles) > 0 {
		return nil, fmt.Errorf("fabric: netlist %q: combinational cycle through LUT %d", n.Name, lv.cycles[0][0])
	}
	return lv.order, nil
}

// Optimize performs constant folding, structural deduplication and
// dead-logic elimination in place, returning the number of LUTs and
// flip-flops removed. Ports are preserved: if a port net's driver is
// folded away, a buffer LUT is kept.
func Optimize(n *Netlist) int {
	removed := 0
	for {
		r := optimizePass(n)
		removed += r
		if r == 0 {
			break
		}
	}
	// Sweep logic no output can observe. Folding and aliasing above can
	// orphan drivers (a buffered port rewrites to the alias target,
	// leaving the buffer's source chain unread), and source circuits
	// carry genuinely dead cones; neither affects behaviour, so both go.
	return removed + sweepDead(n)
}

// sweepDead removes every LUT and flip-flop whose value cannot reach an
// output port, returning how many elements were dropped. Observable
// behaviour is untouched: the kept set is the backward closure of the
// output ports through LUT inputs and flip-flop D pins.
func sweepDead(n *Netlist) int {
	live := n.observable(n.drivers())
	removed := 0
	keptLUTs := n.LUTs[:0]
	for i := range n.LUTs {
		if live[n.LUTs[i].Out] {
			keptLUTs = append(keptLUTs, n.LUTs[i])
		} else {
			removed++
		}
	}
	n.LUTs = keptLUTs
	keptFFs := n.FFs[:0]
	for i := range n.FFs {
		if live[n.FFs[i].Q] {
			keptFFs = append(keptFFs, n.FFs[i])
		} else {
			removed++
		}
	}
	n.FFs = keptFFs
	return removed
}

type lutKey struct {
	in    [4]Net
	table uint16
}

func optimizePass(n *Netlist) int {
	order, err := n.Levelize()
	if err != nil {
		return 0
	}
	// constVal[net]: 0 unknown, 1 false, 2 true.
	constVal := make([]int8, n.NumNets)
	// alias[net]: if >= 0, net is identical to alias net.
	alias := make([]Net, n.NumNets)
	for i := range alias {
		alias[i] = NilNet
	}
	resolve := func(net Net) Net {
		for net != NilNet && alias[net] != NilNet {
			net = alias[net]
		}
		return net
	}
	// Nets that must keep a physical driver (outputs and FF inputs get
	// rewritten instead, so only multiply-aliased ports matter; handled by
	// keeping buffers below).
	seen := make(map[lutKey]Net)
	drop := make([]bool, len(n.LUTs))
	removed := 0
	for _, li := range order {
		l := &n.LUTs[li]
		// Rewrite inputs through aliases, then fold constants (and the
		// unconnected trailing pins, which read 0) into the table.
		ins := l.In
		for i := range ins {
			if ins[i] != NilNet {
				ins[i] = resolve(ins[i])
			}
		}
		tbl, ins, _ := foldLUT(l.Table, ins, NilNet, func(net Net) (bool, bool) {
			if net == NilNet {
				return false, true
			}
			return constVal[net] == 2, constVal[net] != 0
		})
		l.In = ins
		l.Table = tbl
		switch {
		case ins[0] == NilNet: // constant (the table is 0 or 0xFFFF)
			constVal[l.Out] = 1 + int8(tbl&1)
		case isBufferTable(tbl, ins): // single-input buffer
			alias[l.Out] = ins[0]
			drop[li] = true
			removed++
			continue
		}
		key := lutKey{ins, l.Table}
		if prev, ok := seen[key]; ok {
			alias[l.Out] = prev
			drop[li] = true
			removed++
			continue
		}
		seen[key] = l.Out
	}
	// Rewrite FF inputs and outputs through aliases.
	for i := range n.FFs {
		n.FFs[i].D = resolve(n.FFs[i].D)
	}
	needDriver := map[Net]bool{}
	for pi := range n.Ports {
		p := &n.Ports[pi]
		if p.Dir != DirOut {
			continue
		}
		for bi := range p.Nets {
			r := resolve(p.Nets[bi])
			p.Nets[bi] = r
			needDriver[r] = true
		}
	}
	// Keep drivers for aliased nets that ports now reference... ports were
	// rewritten to the alias target, whose driver survives, so nothing to do.
	_ = needDriver
	if removed == 0 {
		return 0
	}
	kept := n.LUTs[:0]
	for li := range n.LUTs {
		if !drop[li] {
			kept = append(kept, n.LUTs[li])
		}
	}
	n.LUTs = kept
	return removed
}

// foldLUT is the package's one LUT simplifier, shared by the optimizer,
// the compiler's init specialisation and the equivalence prover's
// normalizer. Pins whose value known reports fold into the table, pins
// the table then ignores drop, and the k remaining pins compact into the
// low positions (the vacated ones hold none). The table comes back
// canonical over those k pins, so k == 0 is a constant (tab&1) and
// k == 1 with table 0xAAAA is an identity buffer of in[0].
func foldLUT[T comparable](tab uint16, in [4]T, none T, known func(T) (val, ok bool)) (uint16, [4]T, int) {
	out := [4]T{none, none, none, none}
	k := 0
	for _, x := range in {
		// k is the position pin x now has in the progressively
		// collapsed table.
		if v, ok := known(x); ok {
			tab = collapseInput(tab, k, v)
		} else {
			out[k] = x
			k++
		}
	}
	// Canonicalise before testing for ignored pins: a source table may
	// carry arbitrary bits in its unused upper entries, which would make
	// an ignored pin look live, and Optimize must reach its fixpoint in
	// one call. Re-canonicalise after each drop: collapseInput leaves the
	// upper half unreplicated.
	tab = CanonTable(tab, k)
	for p := 0; p < k; {
		if inputIgnored(tab, p) {
			tab = collapseInput(tab, p, false)
			copy(out[p:k], out[p+1:k])
			k--
			out[k] = none
			tab = CanonTable(tab, k)
		} else {
			p++
		}
	}
	return tab, out, k
}

// varLow[i] marks the truth-table entries whose index has bit i clear.
var varLow = [4]uint16{0x5555, 0x3333, 0x0F0F, 0x00FF}

// collapseInput specialises a 4-input truth table by fixing input i to val,
// producing a table over the remaining inputs (higher inputs shift down).
// It selects the entries with bit i of the index equal to val, moves them
// to the bit-i-clear positions, and squeezes the gaps out; the upper
// eight entries come out zero.
func collapseInput(tbl uint16, i int, val bool) uint16 {
	t := tbl
	if val {
		t >>= 1 << i
	}
	t &= varLow[i]
	for j := i; j < 3; j++ {
		t = (t | t>>(1<<j)) & varLow[j+1]
	}
	return t
}

// CanonTable replicates the low 2^k entries of a truth table across the
// whole 16-entry table, the canonical form for a LUT with k used inputs
// (unused inputs read as zero, so upper entries are don't-cares).
func CanonTable(tbl uint16, k int) uint16 {
	if k >= 4 {
		return tbl
	}
	span := 1 << k
	mask := uint16(1)<<span - 1
	low := tbl & mask
	var out uint16
	for off := 0; off < 16; off += span {
		out |= low << off
	}
	return out
}

// inputIgnored reports whether truth table tbl is independent of input i.
func inputIgnored(tbl uint16, i int) bool {
	return tbl&varLow[i] == tbl>>(1<<i)&varLow[i]
}

// isBufferTable reports whether the LUT is a single-input identity.
func isBufferTable(tbl uint16, ins [4]Net) bool {
	return ins[0] != NilNet && ins[1] == NilNet && tbl == 0xAAAA
}

// Clone returns a deep copy sharing no mutable state with n, so the
// original survives in-place transforms (OptimizeChecked proves the
// optimized netlist against a clone of its input).
func (n *Netlist) Clone() *Netlist {
	c := &Netlist{
		Name:    n.Name,
		NumNets: n.NumNets,
		Ports:   make([]Port, len(n.Ports)),
		LUTs:    append([]LUT(nil), n.LUTs...),
		FFs:     append([]FF(nil), n.FFs...),
	}
	for i, p := range n.Ports {
		c.Ports[i] = Port{Name: p.Name, Dir: p.Dir, Nets: append([]Net(nil), p.Nets...)}
	}
	return c
}
