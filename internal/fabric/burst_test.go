package fabric

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// issuer drives one engine through the §4.4 issue protocol the way the
// RFU does: a status bit feeds init and latches done, a run stops after
// max cycles (an interrupt) or at done, and an aborted instruction is
// reissued with the status left as it was. With burst set, every issue
// goes through Instance.Run, which runs a fresh issue whose program has
// a burst of at most max cycles in one call.
type issuer struct {
	cfg    *ArrayConfig
	prog   *Compiled
	inst   *Instance // compiled engines
	pfu    *PFU      // the interpretive reference
	burst  bool
	status bool
	bursts int // instructions the burst ran
}

func (e *issuer) step(a, b uint32) (uint32, bool) {
	if e.pfu != nil {
		return e.pfu.Step(a, b, e.status)
	}
	return e.inst.Step(a, b, e.status)
}

// run issues (or reissues) an instruction for at most max cycles.
func (e *issuer) run(a, b uint32, max int) (out uint32, n int, done bool) {
	if e.burst {
		if k := e.prog.BurstCycles(); e.status && k > 0 && k <= max {
			e.bursts++
		}
		out, n, done = e.inst.Run(a, b, e.status, max)
		e.status = done
		return out, n, done
	}
	for n < max && !done {
		out, done = e.step(a, b)
		e.status = done
		n++
	}
	return out, n, done
}

func (e *issuer) regs() []uint8 {
	if e.pfu != nil {
		return pfuRegs(e.pfu)
	}
	return instRegs(e.inst)
}

func (e *issuer) setRegs(regs []uint8) {
	if e.pfu != nil {
		setPFURegs(e.pfu, regs)
	} else {
		setInstRegs(e.inst, regs)
	}
}

// evict moves the engine's registers into a fresh instance of its
// engine: the registers, the state frame group a §4.1 swap charges for,
// must be all the state an instruction carries.
func (e *issuer) evict(t *testing.T) {
	t.Helper()
	regs := e.regs()
	if e.pfu != nil {
		p, err := NewPFU(e.cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.pfu = p
	} else {
		e.inst = e.prog.NewInstance()
	}
	e.setRegs(regs)
}

// withDoneChain rewires n's done output to a one-hot chain that init
// starts, so done folds to constant 0 on cycles 1..k−1 of a fresh
// instruction and to constant 1 on cycle k: the circuit compiles to a
// k-cycle burst. out[0] becomes an accumulator that XORs in the old
// out[0] every cycle, so the burst's result also depends on a register
// value from before the instruction.
func withDoneChain(n *Netlist, k int) {
	initPort, _ := n.PortByName("init")
	init := initPort.Nets[0]
	newNet := func() Net {
		n.NumNets++
		return Net(n.NumNets - 1)
	}
	andNot := func(x, y Net) Net {
		out := newNet()
		n.LUTs = append(n.LUTs, LUT{In: [4]Net{x, y, NilNet, NilNet}, Table: 0x2222, Out: out})
		return out
	}
	dff := func(d Net) Net {
		q := newNet()
		n.FFs = append(n.FFs, FF{D: d, Q: q})
		return q
	}
	q := dff(init)
	for j := 2; j < k; j++ {
		q = dff(andNot(q, init))
	}
	done := andNot(q, init)
	outPort, _ := n.PortByName("out")
	acc := newNet()
	d := newNet()
	n.LUTs = append(n.LUTs, LUT{In: [4]Net{acc, outPort.Nets[0], NilNet, NilNet}, Table: 0x6666, Out: d})
	n.FFs = append(n.FFs, FF{D: d, Q: acc})
	outPort.Nets[0] = acc
	for i := range n.Ports {
		if n.Ports[i].Name == "done" {
			n.Ports[i].Nets = []Net{done}
		}
	}
}

// withHiddenFFs gives some CLBs a flip-flop whose Q drives no wire —
// placement never makes one, but a decoded configuration can: LUT-fed
// ones on combinational CLBs, pin-fed ones on combinational and unused
// CLBs. Only the registers show them.
func withHiddenFFs(rng *rand.Rand, cfg *ArrayConfig) {
	nw := uint16(cfg.Spec.NumWires())
	for i := range cfg.CLBs {
		cc := &cfg.CLBs[i]
		if cc.Flags&FlagOutFF != 0 || rng.Intn(8) != 0 {
			continue
		}
		switch {
		case cc.Flags&FlagLUTUsed != 0 && rng.Intn(2) == 0:
			cc.Flags |= FlagFFUsed
		case cc.Flags&FlagLUTUsed != 0 && cc.InSel[0] != 0:
			cc.Flags |= FlagFFUsed | FlagFFFromPin
		case cc.Flags == 0:
			cc.Flags |= FlagFFUsed | FlagFFFromPin
			cc.InSel[0] = 1 + uint16(rng.Intn(int(nw)))
		}
		if rng.Intn(2) == 0 {
			cc.Flags |= FlagFFInit
		}
	}
}

// TestBurstMatchesSteppingAndPFU runs every instruction three ways — the
// burst engine, per-cycle compiled stepping and the interpretive PFU —
// over the stock library, random netlists and init-heavy netlists, the
// latter two also with a done chain (so they compile to bursts) and
// hidden flip-flops. Each circuit starts from random registers and
// sees fresh issues, an interrupt at every cycle 1..K+1, eviction into a
// fresh instance mid-instruction, and reissues; out, done, the cycles run
// and every engine's registers must agree after every run.
func TestBurstMatchesSteppingAndPFU(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	type tcase struct {
		name string
		cfg  *ArrayConfig
	}
	var cases []tcase
	for _, c := range stockLibrary {
		cases = append(cases, tcase{c.name, placeT(t, c.mk())})
	}
	for i := 0; i < 20; i++ {
		n, _ := randomCircuit(rng, 5+rng.Intn(80), rng.Intn(10))
		h := initHeavyCircuit(rng, 10+rng.Intn(80))
		for _, chained := range []bool{false, true} {
			for _, src := range []*Netlist{n, h} {
				src = src.Clone()
				if chained {
					withDoneChain(src, 2+rng.Intn(12))
				}
				cfg, _, err := Place(src, DefaultPFUSpec)
				if err != nil {
					t.Fatalf("%s#%d: place: %v", src.Name, i, err)
				}
				if chained {
					withHiddenFFs(rng, cfg)
				}
				cases = append(cases, tcase{fmt.Sprintf("%s#%d/chain=%v", src.Name, i, chained), cfg})
			}
		}
	}
	bursts := 0
	for _, tc := range cases {
		prog := compileT(t, tc.cfg)
		if err := prog.Verify(tc.cfg); err != nil {
			t.Fatalf("%s: Verify: %v", tc.name, err)
		}
		pfu, err := NewPFU(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines := []*issuer{
			{cfg: tc.cfg, prog: prog, inst: prog.NewInstance(), burst: true, status: true},
			{cfg: tc.cfg, prog: prog, inst: prog.NewInstance(), status: true},
			{cfg: tc.cfg, prog: prog, pfu: pfu, status: true},
		}
		start := make([]uint8, tc.cfg.Spec.CLBs())
		for i := range start {
			start[i] = uint8(rng.Intn(2))
		}
		for _, e := range engines {
			e.setRegs(start)
		}
		check := func(what string, a, b uint32, max int) bool {
			t.Helper()
			type result struct {
				out  uint32
				n    int
				done bool
			}
			var got [3]result
			var regs [3][]uint8
			for i, e := range engines {
				got[i].out, got[i].n, got[i].done = e.run(a, b, max)
				regs[i] = e.regs()
			}
			for i := 1; i < 3; i++ {
				if got[i].done != got[0].done || got[i].n != got[0].n || got[0].done && got[i].out != got[0].out {
					t.Fatalf("%s: %s (a=%#x b=%#x max=%d): burst engine %+v, stepping %+v, PFU %+v",
						tc.name, what, a, b, max, got[0], got[1], got[2])
				}
				if !slices.Equal(regs[i], regs[0]) {
					t.Fatalf("%s: %s (a=%#x b=%#x max=%d): registers differ after the run", tc.name, what, a, b, max)
				}
			}
			return got[0].done
		}
		const unbounded = 80 // more cycles than any test instruction takes
		k := prog.BurstCycles()
		for irq := 1; irq <= max(k+1, 3); irq++ {
			a, b := rng.Uint32(), rng.Uint32()
			if check(fmt.Sprintf("fresh issue, IRQ at cycle %d", irq), a, b, irq) {
				continue
			}
			if irq%2 == 0 {
				for _, e := range engines {
					e.evict(t)
				}
			}
			if !check("reissue, IRQ again", a, b, 1+rng.Intn(3)) {
				check("reissue to completion", a, b, unbounded)
			}
		}
		check("fresh issue", rng.Uint32(), rng.Uint32(), unbounded)
		if k > 0 && engines[0].bursts == 0 {
			t.Fatalf("%s: a %d-cycle burst never ran", tc.name, k)
		}
		bursts += engines[0].bursts
	}
	if bursts == 0 {
		t.Fatal("no case compiled to a burst")
	}
}

// TestLUTFedFlipFlopOnLUTOutputCLB pins the register of a CLB that
// outputs its LUT and also latches it (FlagFFUsed set, FlagOutFF and
// FlagFFFromPin clear): placement never emits one, but a decoded
// configuration can. After one step, and after a burst, its state-frame
// slot holds the LUT's value under every engine.
func TestLUTFedFlipFlopOnLUTOutputCLB(t *testing.T) {
	cfg := NewArrayConfig(ArraySpec{W: 2, H: 2})
	// CLB 0, the subject: a0 XOR b0 on its output wire and into its
	// flip-flop.
	cfg.CLBs[0] = CLBConfig{Table: 0x6666, InSel: [4]uint16{1 + WireA0, 1 + WireB0}, Flags: FlagLUTUsed | FlagFFUsed}
	// CLBs 1 and 2 make done fire on cycle 2, so the program has a burst.
	cfg.CLBs[1] = CLBConfig{InSel: [4]uint16{1 + WireInit}, Flags: FlagFFUsed | FlagOutFF | FlagFFFromPin}
	cfg.CLBs[2] = CLBConfig{Table: 0x2222, InSel: [4]uint16{1 + WireCLB0 + 1, 1 + WireInit}, Flags: FlagLUTUsed}
	cfg.OutSel[0] = 1 + WireCLB0
	cfg.OutSel[32] = 1 + WireCLB0 + 2
	prog := compileT(t, cfg)
	if err := prog.Verify(cfg); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if k := prog.BurstCycles(); k != 2 {
		t.Fatalf("burst of %d cycles, want 2", k)
	}
	for a := uint32(0); a < 2; a++ {
		for b := uint32(0); b < 2; b++ {
			want := uint8(a ^ b)
			start := []uint8{1 - want, 0, 0, 0}
			pfu, err := NewPFU(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stepped, burst := prog.NewInstance(), prog.NewInstance()
			setPFURegs(pfu, start)
			setInstRegs(stepped, start)
			setInstRegs(burst, start)
			pfu.Step(a, b, true)
			stepped.Step(a, b, true)
			burst.Run(a, b, true, 2)
			for i, f := range [][]uint8{pfuRegs(pfu), instRegs(stepped), instRegs(burst)} {
				if f[0] != want {
					t.Errorf("a=%d b=%d: %s latched %d, want the LUT's %d", a, b, []string{"pfu", "compiled", "burst"}[i], f[0], want)
				}
			}
		}
	}
}

// accum4 is a 4-bit accumulator that adds a[3:0] on an instruction's
// first cycle and b[3:0] on every later one, raising done on each, so both
// cycle schedules read and latch its registers.
func accum4() *Netlist {
	bd := NewBuilder("accum4")
	a, b := bd.Input("a", 32), bd.Input("b", 32)
	init := bd.Input("init", 1)[0]
	acc, setAcc := bd.regMaker()(4)
	sum, _ := bd.Add(acc, bd.MuxW(init, b[:4], a[:4]), bd.Const(false))
	setAcc(sum)
	bd.Output("out", bd.Extend(acc, 32))
	bd.Output("done", []Net{bd.Const(true)})
	return bd.MustBuild()
}

// corruption is one way to corrupt a compiled program, and a substring of
// the error Verify must reject it with.
type corruption struct {
	name, want string
	corrupt    func(c *Compiled)
}

// requireRejects applies each corruption to its own copy of prog and
// requires Verify against cfg to fail with the named error.
func requireRejects(t *testing.T, cfg *ArrayConfig, prog *Compiled, cases []corruption) {
	t.Helper()
	for _, tc := range cases {
		bad := *prog
		for _, s := range []*schedule{&bad.burst, &bad.sched[0], &bad.sched[1]} {
			s.in, s.tab, s.wit = slices.Clone(s.in), slices.Clone(s.tab), slices.Clone(s.wit)
			s.refresh, s.latch = slices.Clone(s.refresh), slices.Clone(s.latch)
		}
		bad.ffInit = slices.Clone(bad.ffInit)
		tc.corrupt(&bad)
		if err := bad.Verify(cfg); err == nil {
			t.Errorf("%s: Verify accepted the corrupt program", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify error %q, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestVerifyRejectsCorruptProgram corrupts compiled programs one way at a
// time and requires Verify to reject each with its named error. In
// alphablend's burst: a flipped table bit, an op whose witness is another
// op's ref, an op that reads a wire no earlier op writes, and an op
// missing an operand pin its witness's cone reads, so the cone escapes the
// op's inputs; on a paired burst op, a flipped bit in the high table half,
// the two halves swapped with their witnesses kept, and a high half
// standing for the low half's witness; on an op with one LUT, a high half
// that is not 0; a register whose power-on value differs from the
// configuration's; ops that write past the wire scratch; and a refresh
// into the constant-1 wire. In each cycle schedule of alphablend and of
// accum4, whose init=1 cycle, unlike alphablend's, reads registers: a
// flipped low table bit and a flipped high bit of a paired op; in each of
// accum4's, two refresh slots swapped, so a register's wire holds another
// register, and a latch that reads another latch's wire.
func TestVerifyRejectsCorruptProgram(t *testing.T) {
	cfg := placeT(t, AlphaBlend())
	prog := compileT(t, cfg)
	s := &prog.burst
	n := len(s.tab)
	// An op reading an operand wire on its first pin, a paired op whose
	// two tables differ and an op with one LUT.
	operand, paired, single := -1, -1, -1
	for k := range s.in {
		if operand < 0 && s.in[k][0] < WireInit {
			operand = k
		}
		if paired < 0 && s.wit[2*k+1] != symConst0 && uint16(s.tab[k]) != uint16(s.tab[k]>>16) {
			paired = k
		}
		if single < 0 && s.wit[2*k+1] == symConst0 {
			single = k
		}
	}
	if operand < 0 || paired < 0 || single < 0 {
		t.Fatalf("burst has no operand-reading op (%d), paired op (%d) or one-LUT op (%d)", operand, paired, single)
	}
	requireRejects(t, cfg, prog, append([]corruption{
		{"flipped table bit", "differs from its witness", func(c *Compiled) { c.burst.tab[n/2] ^= 1 }},
		{"wrong witness", "not one of its inputs", func(c *Compiled) { c.burst.wit[2*(n/2)] = c.burst.wit[2*(n/2+1)] }},
		{"read of a later op's wire", "before writing it", func(c *Compiled) { c.burst.in[0][0] = c.burst.out0 + uint32(2*n-1) }},
		{"cone escapes its inputs", "not one of its inputs", func(c *Compiled) { c.burst.in[operand][0] = wireConst0 }},
		{"flipped high table bit", "differs from its witness", func(c *Compiled) { c.burst.tab[paired] ^= 1 << 16 }},
		{"swapped table halves", "differs from its witness", func(c *Compiled) {
			c.burst.tab[paired] = c.burst.tab[paired]>>16 | c.burst.tab[paired]<<16
		}},
		{"wrong second witness", "differs from its witness", func(c *Compiled) { c.burst.wit[2*paired+1] = c.burst.wit[2*paired] }},
		{"non-zero high half of one LUT", "differs from its witness", func(c *Compiled) { c.burst.tab[single] |= 1 << 16 }},
		{"wrong power-on value", "powers on", func(c *Compiled) { c.ffInit[c.sched[0].latch[0].slot] ^= 1 }},
		{"ops past the scratch", "burst writes wires", func(c *Compiled) { c.burst.out0 = uint32(c.nWires) }},
		{"refresh into a constant wire", "outside its register wires", func(c *Compiled) { c.sched[0].refresh[0].wire = wireConst1 }},
	}, cycleCorruptions(t, prog, false)...))
	acc := placeT(t, accum4())
	accProg := compileT(t, acc)
	requireRejects(t, acc, accProg, cycleCorruptions(t, accProg, true))
}

// cycleCorruptions returns corruptions of both of prog's cycle schedules:
// in each, a flipped bit in the low table half of op 0 and in the high
// half of a paired op, and with regs two refresh slots swapped and a latch
// reading another latch's wire.
func cycleCorruptions(t *testing.T, prog *Compiled, regs bool) []corruption {
	t.Helper()
	var cases []corruption
	for v := range prog.sched {
		s := &prog.sched[v]
		paired := -1
		for k := range s.tab {
			if s.wit[2*k+1] != symConst0 {
				paired = k
				break
			}
		}
		if paired < 0 || regs && (len(s.refresh) < 2 || len(s.latch) < 2) {
			t.Fatalf("the init=%d schedule has no paired op (%d), or fewer than two refreshes (%d) or latches (%d)",
				v, paired, len(s.refresh), len(s.latch))
		}
		name := fmt.Sprintf("init=%d schedule", v)
		cases = append(cases,
			corruption{name + " flipped low table bit", name + " op 0 half 0 table entry 0 differs from its witness", func(c *Compiled) {
				c.sched[v].tab[0] ^= 1
			}},
			corruption{name + " flipped high table bit", fmt.Sprintf("%s op %d half 1 table entry 0 differs from its witness", name, paired), func(c *Compiled) {
				c.sched[v].tab[paired] ^= 1 << 16
			}},
		)
		if regs {
			cases = append(cases,
				corruption{name + " swapped refresh slots", "not one of its inputs", func(c *Compiled) {
					r := c.sched[v].refresh
					r[0].slot, r[1].slot = r[1].slot, r[0].slot
				}},
				corruption{name + " latch reading another latch's wire", name + " latches CLB", func(c *Compiled) {
					l := c.sched[v].latch
					l[0].wire = l[1].wire
				}},
			)
		}
	}
	return cases
}

// TestAlphaBlendWireScratch pins alphablend's per-instance wire scratch,
// one byte per wire rounded up to a power of two, at 1 KiB: the burst's
// ops, which write consecutive wires past the operands, constants and
// the registers they read, fit in it.
func TestAlphaBlendWireScratch(t *testing.T) {
	prog := compileT(t, placeT(t, AlphaBlend()))
	if n := len(prog.NewInstance().wires); n != 1024 {
		t.Fatalf("alphablend wire scratch is %d bytes, want 1024", n)
	}
}
