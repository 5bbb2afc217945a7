package fabric

import "fmt"

// The LUT-graph core. A netlist and an array configuration are the same
// circuit in two forms: nodes that evaluate a 4-input LUT, each pin
// either fed combinationally by another node or by a source (an input,
// a register, an unconnected pin). Both forms lower to a lutGraph, and
// one walk decides evaluation order, combinational cycles and LUT depth
// for both — so §2's rule "reject a configuration whose logic loops",
// the netlist and configuration linters and static timing can never
// disagree about the graph.

// lutGraph is one circuit form lowered to its combinational LUT graph.
type lutGraph struct {
	n     int                  // node count
	isLUT func(i int) bool     // node i evaluates a LUT (is walked)
	src   func(i, pin int) int // node driving pin combinationally, or -1
}

// levels is the result of walking a lutGraph.
type levels struct {
	// order lists the LUT nodes so every combinational source comes
	// before its consumer.
	order []int
	// cycles holds every cycle found, in discovery order, as the node
	// path from the back edge's target to the node that reached it.
	cycles [][]int
	// depth is each walked node's LUT depth (one past its deepest
	// source), and pred the source achieving it (first pin on ties; -1
	// for none). Both are meaningful only when cycles is empty.
	depth, pred []int
	// max is the largest depth, 0 when a cycle leaves it undefined.
	max int
}

// levelize walks the graph depth first from each LUT node in index
// order, following pins 0..3, and emits nodes in post-order. The walk
// is iterative so long carry chains cannot exhaust the stack.
func (g lutGraph) levelize() levels {
	lv := levels{order: make([]int, 0, g.n), depth: make([]int, g.n), pred: make([]int, g.n)}
	state := make([]int8, g.n) // 0 unvisited, 1 on the stack, 2 done
	type frame struct{ node, next int }
	var stack []frame
	for start := 0; start < g.n; start++ {
		if state[start] != 0 || !g.isLUT(start) {
			continue
		}
		stack = append(stack[:0], frame{start, 0})
		state[start] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next == 4 {
				// Every source is done (or on the stack, a cycle): the
				// node's depth is final.
				i, d, p := f.node, 0, -1
				for pin := 0; pin < 4; pin++ {
					if s := g.src(i, pin); s >= 0 && lv.depth[s] > d {
						d, p = lv.depth[s], s
					}
				}
				lv.depth[i], lv.pred[i] = d+1, p
				lv.max = max(lv.max, d+1)
				state[i] = 2
				lv.order = append(lv.order, i)
				stack = stack[:len(stack)-1]
				continue
			}
			dep := g.src(f.node, f.next)
			f.next++
			if dep < 0 {
				continue
			}
			switch state[dep] {
			case 0:
				state[dep] = 1
				stack = append(stack, frame{dep, 0})
			case 1:
				// A back edge: the cycle is the stack suffix from dep's
				// frame to the top.
				k := len(stack) - 1
				for stack[k].node != dep {
					k--
				}
				cyc := make([]int, 0, len(stack)-k)
				for _, fr := range stack[k:] {
					cyc = append(cyc, fr.node)
				}
				lv.cycles = append(lv.cycles, cyc)
			}
		}
	}
	if len(lv.cycles) > 0 {
		lv.max = 0
	}
	return lv
}

// closure marks live the backward closure of seeds: each newly marked
// node is handed to expand, which pushes the nodes feeding it. Negative
// nodes (NilNet, an unrouted pin) are skipped.
func closure[T ~int | ~int32](seeds []T, live []bool, expand func(x T, push func(T))) {
	var work []T
	push := func(x T) {
		if x >= 0 && !live[x] {
			live[x] = true
			work = append(work, x)
		}
	}
	for _, s := range seeds {
		push(s)
	}
	for len(work) > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		expand(x, push)
	}
}

// drivers maps each net to the LUT and the flip-flop driving it, -1 for
// none.
func (n *Netlist) drivers() (lutOf, ffOf []int) {
	lutOf, ffOf = make([]int, n.NumNets), make([]int, n.NumNets)
	for i := range lutOf {
		lutOf[i], ffOf[i] = -1, -1
	}
	for i := range n.LUTs {
		lutOf[n.LUTs[i].Out] = i
	}
	for i := range n.FFs {
		ffOf[n.FFs[i].Q] = i
	}
	return lutOf, ffOf
}

// graph lowers a netlist: every LUT is a node, and a pin's source is the
// LUT driving its net (flip-flop outputs and input ports are sources).
func (n *Netlist) graph(lutOf []int) lutGraph {
	return lutGraph{
		n:     len(n.LUTs),
		isLUT: func(int) bool { return true },
		src: func(i, pin int) int {
			if in := n.LUTs[i].In[pin]; in != NilNet {
				return lutOf[in]
			}
			return -1
		},
	}
}

// levels walks the netlist's LUT graph.
func (n *Netlist) levels() levels {
	lutOf, _ := n.drivers()
	return n.graph(lutOf).levelize()
}

// outputNets lists every net an output port taps.
func (n *Netlist) outputNets() []Net {
	var nets []Net
	for _, p := range n.Ports {
		if p.Dir == DirOut {
			nets = append(nets, p.Nets...)
		}
	}
	return nets
}

// observable reports, per net, whether its value can reach an output
// port: the backward closure of the outputs through LUT inputs and
// flip-flop D pins.
func (n *Netlist) observable(lutOf, ffOf []int) []bool {
	live := make([]bool, n.NumNets)
	closure(n.outputNets(), live, func(net Net, push func(Net)) {
		if li := lutOf[net]; li >= 0 {
			for _, in := range n.LUTs[li].In {
				push(in)
			}
		}
		if fi := ffOf[net]; fi >= 0 {
			push(n.FFs[fi].D)
		}
	})
	return live
}

// fanout counts the readers of each net: LUT inputs, flip-flop D pins
// and output taps.
func (n *Netlist) fanout() []int {
	fanout := make([]int, n.NumNets)
	for i := range n.LUTs {
		for _, in := range n.LUTs[i].In {
			if in != NilNet {
				fanout[in]++
			}
		}
	}
	for i := range n.FFs {
		fanout[n.FFs[i].D]++
	}
	for _, net := range n.outputNets() {
		fanout[net]++
	}
	return fanout
}

// configGraph lowers a configuration: every CLB is a node, walked when
// its LUT is used; a pin's source is the CLB it routes from when that
// CLB's output is its LUT (registered outputs are sources and break
// cycles).
func configGraph(cfg *ArrayConfig) lutGraph {
	return lutGraph{
		n:     cfg.Spec.CLBs(),
		isLUT: func(i int) bool { return cfg.CLBs[i].Flags&FlagLUTUsed != 0 },
		src: func(i, pin int) int {
			s := int(cfg.CLBs[i].InSel[pin]) - 1 - WireCLB0
			if s < 0 || cfg.CLBs[s].Flags&(FlagLUTUsed|FlagOutFF) != FlagLUTUsed {
				return -1
			}
			return s
		},
	}
}

// levelizeConfig walks a configuration's combinational CLB graph,
// rejecting it when its logic loops. NewPFU, Compile, configSym and
// Timing all take their order and depth from here, so every engine and
// analysis rejects exactly the same configurations.
func levelizeConfig(cfg *ArrayConfig) (levels, error) {
	lv := configGraph(cfg).levelize()
	if len(lv.cycles) > 0 {
		return lv, fmt.Errorf("fabric: combinational cycle through CLB %d; configuration rejected", lv.cycles[0][0])
	}
	return lv, nil
}
