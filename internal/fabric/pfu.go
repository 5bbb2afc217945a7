package fabric

// PFU simulates one configured CLB array implementing the paper's PFU
// execution interface (§4.4): two 32-bit operand inputs, the init control
// signal in, a 32-bit result and the completion signal out. Each Step is
// one clock cycle: combinational logic settles, outputs are sampled, then
// every used flip-flop latches.
//
// NewPFU doubles as the functional-security validator of §2: a
// configuration whose combinational logic loops (and so could never
// terminate or would oscillate) is rejected at load time, before it ever
// executes. The check is levelizeConfig, a walk of the LUT graph in
// graph.go that Compile, Timing and LintConfig share, so every engine
// and analysis rejects exactly the same loops.
type PFU struct {
	cfg   *ArrayConfig
	order []int  // CLB indices with used LUTs, in evaluation order
	wires []bool // wire value per the array wire enumeration
	ffQ   []bool // per-CLB register value (only meaningful when FF used)
	ffNxt []bool
	outW  [33]int // resolved OutSel wires, -1 = constant 0
}

// NewPFU validates a configuration and builds its simulator.
func NewPFU(cfg *ArrayConfig) (*PFU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lv, err := levelizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	p := &PFU{
		cfg:   cfg,
		order: lv.order,
		wires: make([]bool, cfg.Spec.NumWires()),
		ffQ:   make([]bool, cfg.Spec.CLBs()),
		ffNxt: make([]bool, cfg.Spec.CLBs()),
	}
	for i, sel := range cfg.OutSel {
		p.outW[i] = int(sel) - 1
	}
	p.Reset()
	return p, nil
}

// Reset restores every register to its configured initial value, the
// power-on state of a freshly loaded circuit.
func (p *PFU) Reset() {
	for i := range p.cfg.CLBs {
		p.ffQ[i] = p.cfg.CLBs[i].Flags&FlagFFInit != 0
	}
}

func (p *PFU) wire(idx int) bool {
	if idx < 0 {
		return false
	}
	return p.wires[idx]
}

// Step advances the circuit by one clock cycle with the given operand and
// init values, returning the sampled result and completion outputs.
func (p *PFU) Step(a, b uint32, init bool) (out uint32, done bool) {
	// Drive inputs and register outputs onto the wire enumeration.
	for i := 0; i < 32; i++ {
		p.wires[WireA0+i] = a>>i&1 != 0
		p.wires[WireB0+i] = b>>i&1 != 0
	}
	p.wires[WireInit] = init
	for i := range p.cfg.CLBs {
		c := &p.cfg.CLBs[i]
		if c.Flags&FlagOutFF != 0 {
			p.wires[WireCLB0+i] = p.ffQ[i]
		}
	}
	// Settle combinational logic.
	for _, i := range p.order {
		c := &p.cfg.CLBs[i]
		idx := 0
		for pin := 0; pin < 4; pin++ {
			sel := int(c.InSel[pin]) - 1
			if sel >= 0 && p.wires[sel] {
				idx |= 1 << pin
			}
		}
		v := c.Table>>idx&1 != 0
		if c.Flags&FlagOutFF == 0 {
			p.wires[WireCLB0+i] = v
		}
		if c.Flags&FlagFFFromPin == 0 {
			// LUT feeds the register internally; stage for the edge.
			p.ffNxt[i] = v
		}
	}
	// Sample outputs before the clock edge.
	for i := 0; i < 32; i++ {
		if p.wire(p.outW[i]) {
			out |= 1 << i
		}
	}
	done = p.wire(p.outW[32])
	// Clock edge.
	for i := range p.cfg.CLBs {
		c := &p.cfg.CLBs[i]
		if c.Flags&FlagFFUsed == 0 {
			continue
		}
		if c.Flags&FlagFFFromPin != 0 {
			sel := int(c.InSel[0]) - 1
			p.ffQ[i] = p.wire(sel)
		} else if c.Flags&FlagLUTUsed != 0 {
			p.ffQ[i] = p.ffNxt[i]
		}
	}
	return out, done
}
