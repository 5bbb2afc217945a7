package fabric

import "fmt"

// Sim is a functional simulator for an unplaced netlist: it evaluates the
// combinational LUT network in levelized order and latches flip-flops on
// Step. The tests use it as the netlist-level reference that placed
// configurations, run by the PFU and by compiled instances, must match.
type Sim struct {
	n     *Netlist
	order []int
	vals  []bool
	next  []bool // FF next-state staging
	inX   map[string][]Net
	outX  map[string][]Net
}

// NewSim prepares a simulator; the netlist must validate and levelize.
func NewSim(n *Netlist) (*Sim, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	s := &Sim{
		n:     n,
		order: order,
		vals:  make([]bool, n.NumNets),
		next:  make([]bool, len(n.FFs)),
		inX:   map[string][]Net{},
		outX:  map[string][]Net{},
	}
	for _, p := range n.Ports {
		if p.Dir == DirIn {
			s.inX[p.Name] = p.Nets
		} else {
			s.outX[p.Name] = p.Nets
		}
	}
	s.Reset()
	return s, nil
}

// Reset restores every flip-flop to its configured initial value.
func (s *Sim) Reset() {
	for i := range s.n.FFs {
		s.vals[s.n.FFs[i].Q] = s.n.FFs[i].Init
	}
	s.settle()
}

// SetInput drives an input port with the low bits of v.
func (s *Sim) SetInput(name string, v uint64) error {
	nets, ok := s.inX[name]
	if !ok {
		return fmt.Errorf("fabric: sim %q: no input port %q", s.n.Name, name)
	}
	for i, net := range nets {
		s.vals[net] = v>>i&1 != 0
	}
	return nil
}

// Output samples an output port after the last settle.
func (s *Sim) Output(name string) (uint64, error) {
	nets, ok := s.outX[name]
	if !ok {
		return 0, fmt.Errorf("fabric: sim %q: no output port %q", s.n.Name, name)
	}
	var v uint64
	for i, net := range nets {
		if s.vals[net] {
			v |= 1 << i
		}
	}
	return v, nil
}

// settle evaluates the combinational network with current inputs and FF
// outputs.
func (s *Sim) settle() {
	for _, li := range s.order {
		l := &s.n.LUTs[li]
		s.vals[l.Out] = l.Eval(s.vals)
	}
}

// Eval recomputes combinational outputs without clocking, for purely
// combinational circuits or to observe pre-edge values.
func (s *Sim) Eval() { s.settle() }

// Step evaluates the combinational network and then clocks every flip-flop
// once.
func (s *Sim) Step() {
	s.settle()
	for i := range s.n.FFs {
		s.next[i] = s.vals[s.n.FFs[i].D]
	}
	for i := range s.n.FFs {
		s.vals[s.n.FFs[i].Q] = s.next[i]
	}
	s.settle()
}

// FFState returns a copy of the current flip-flop values, in FF order.
func (s *Sim) FFState() []bool {
	out := make([]bool, len(s.n.FFs))
	for i := range s.n.FFs {
		out[i] = s.vals[s.n.FFs[i].Q]
	}
	return out
}

// LoadFFState restores flip-flop values saved by FFState.
func (s *Sim) LoadFFState(state []bool) error {
	if len(state) != len(s.n.FFs) {
		return fmt.Errorf("fabric: sim %q: state length %d, want %d", s.n.Name, len(state), len(s.n.FFs))
	}
	for i := range s.n.FFs {
		s.vals[s.n.FFs[i].Q] = state[i]
	}
	s.settle()
	return nil
}
