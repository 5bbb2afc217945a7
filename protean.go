// Package protean is the public face of the ProteanARM reproduction of
// "Managing a Reconfigurable Processor in a General Purpose Workstation
// Environment" (Dales, 2003): one API for building and running simulated
// sessions of the POrSCHE kernel managing applications that use custom
// instructions on a reconfigurable functional unit.
//
// The primary surface is declarative: a Scenario is one JSON-serializable
// value describing an entire run — a fleet of (possibly heterogeneous)
// workstations, an arrival process, admission control, a placement
// policy and the job list — and Start(ctx, scenario) executes it:
//
//	sc, _ := protean.LoadScenario(specJSON)
//	fr, err := protean.RunScenario(ctx, sc) // Start + Wait
//
// A Session is the imperative fleet-of-one spelling of the same thing: a
// machine plus a booted kernel, configured with functional options,
// populated from the named-workload registry (the paper's alpha-blend,
// twofish and echo applications are built in, and heterogeneous mixes
// are just repeated Spawn calls) or with custom programs via
// SpawnProgram, then Run under a context:
//
//	s, _ := protean.New(protean.WithQuantum(protean.Quantum1ms),
//	    protean.WithPolicy(protean.PolicyRandom))
//	s.Spawn("alpha", 2, 30_000)
//	s.Spawn("twofish", 1, 400)
//	res, err := s.Run(ctx)
//
// Run is cancellable through the context and returns a structured Result:
// per-process completions, CIS / kernel / RFU statistics and console
// output, with Result.Err verifying every built-in workload's checksum
// against its Go model. A fleet of sessions — nodes, arrivals, admission,
// placement and jobs — is declared as a Scenario and run with Start or
// RunScenario; a SessionSpec carries the same knobs as the options.
package protean

import (
	"context"
	"errors"
	"fmt"

	"protean/internal/asm"
	"protean/internal/bus"
	"protean/internal/core"
	"protean/internal/kernel"
	"protean/internal/machine"
	"protean/internal/trace"
)

// Proc is a handle to one spawned process.
type Proc struct {
	PID  uint32
	Name string
	// Workload is the registry name the process came from, empty for
	// SpawnProgram processes.
	Workload string

	expected *uint32
}

// Expect declares the exit code the process must return; Result.Err then
// verifies it. It returns the handle for chaining after SpawnProgram.
func (p *Proc) Expect(code uint32) *Proc {
	c := code
	p.expected = &c
	return p
}

// Session is one configured machine + kernel instance. Sessions are not
// safe for concurrent use; run many sessions in parallel instead (each is
// fully independent — internal/exp's sweep engine does exactly that).
type Session struct {
	cfg   config
	m     *machine.Machine
	k     *kernel.Kernel
	tl    *trace.Log
	procs []*Proc
	ran   bool
	// linted dedupes WithLintWarnings emissions by configuration key, so
	// a session warns once per distinct circuit, not once per spawn.
	linted map[core.ConfigKey]bool
	// timed dedupes WithTimingStats emissions the same way.
	timed map[core.ConfigKey]bool
}

// New builds a session: a ProteanARM machine with a booted POrSCHE kernel,
// parameterised by functional options. The zero configuration is the
// paper's default machine — 4 PFUs, 10 ms quantum, round-robin
// replacement, full-speed (scale 1) simulation.
func New(opts ...Option) (*Session, error) {
	var c config
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	if c.quantum == 0 {
		c.quantum = c.scale.Quantum(Quantum10ms)
	}
	if !c.costsSet {
		c.costs = c.scale.Costs()
	}
	if c.budget == 0 {
		c.budget = 1 << 40
	}
	if c.traceOut != nil && c.traceCap == 0 {
		// WithTraceOut without WithTrace: keep a generous default ring so
		// the exported timeline covers the run.
		c.traceCap = 1 << 16
	}

	m := machine.New(machine.Config{
		ConfigBytesPerCycle: c.scale.ConfigBytesPerCycle(),
		RFU:                 core.Config{PFUs: c.pfus, TLB1Entries: c.tlb1},
	})
	var tl *trace.Log
	if c.traceCap > 0 {
		tl = trace.New(c.traceCap)
	}
	kcfg := kernel.Config{
		Quantum:          c.quantum,
		Policy:           c.policy,
		SoftDispatch:     c.soft,
		Sharing:          c.sharing,
		Costs:            c.costs,
		Seed:             c.seed,
		Trace:            tl,
		FullReadback:     c.fullReadback,
		PageInCycles:     c.pageIn,
		AtomicCDP:        c.atomicCDP,
		MaxFaultsPerProc: c.maxFaults,
	}
	if c.disasmW != nil && c.disasmN > 0 {
		left := c.disasmN
		kcfg.InstrHook = func(pc uint32) {
			if left <= 0 {
				return
			}
			left--
			if w, fault := m.Bus.Read32(pc, bus.Fetch); fault == nil {
				fmt.Fprintf(c.disasmW, "%08x  %08x  %s\n", pc, w, asm.Disassemble(w, pc))
			}
		}
	}
	if c.sink != nil {
		sink := c.sink
		kcfg.OnProcExit = func(p *kernel.Process) {
			sink.Event(Event{
				Kind:  EventProcessExit,
				Label: p.Name,
				PID:   p.PID,
				Cycle: p.Stats.CompletionCycle,
				Code:  p.ExitCode,
				OK:    p.State == kernel.ProcExited,
			})
		}
	}
	s := &Session{cfg: c, m: m, tl: tl}
	s.k = kernel.New(m, kcfg)
	return s, nil
}

// Quantum returns the effective scheduling quantum in cycles, after the
// default (the session scale's 10 ms) has been applied.
func (s *Session) Quantum() uint32 { return s.cfg.quantum }

// NumPFUs returns the number of programmable function units on the
// session's reconfigurable array.
func (s *Session) NumPFUs() int { return s.m.RFU.NumPFUs() }

// Spawn creates instances of a registered workload. items is the
// work-unit count per instance; pass items <= 0 for the workload's
// scaled default. Mixing workloads is just repeated Spawn calls on one
// session. Processes are named "program#pid", where program is the build
// variant's name (e.g. "alpha-hw-nosoft#1"); use the returned handles or
// ProcResult.Workload to correlate results with registry names.
func (s *Session) Spawn(workload string, instances, items int) ([]*Proc, error) {
	if s.ran {
		return nil, errAlreadyRan
	}
	w, ok := lookupWorkload(workload)
	if !ok {
		return nil, fmt.Errorf("protean: unknown workload %q (registered: %v)", workload, Workloads())
	}
	if instances <= 0 {
		return nil, fmt.Errorf("protean: need at least one instance of %q", workload)
	}
	if items <= 0 {
		items = s.cfg.scale.Items(workload)
		if items <= 0 {
			return nil, fmt.Errorf("protean: workload %q declares no default work-unit count; pass items > 0", workload)
		}
	}
	// Templates are cached process-wide (see templateCache): repeated
	// Spawn calls — a heterogeneous rotation, say — and every other
	// session or sweep cell spawning the same template share one built
	// program and its compiled circuit images. Identical templates are
	// what the CIS sharing mode (WithSharing) matches on.
	prog, err := buildTemplate(w, items, s.cfg.soft)
	if err != nil {
		return nil, fmt.Errorf("protean: build %q: %w", workload, err)
	}
	procs := make([]*Proc, 0, instances)
	for i := 0; i < instances; i++ {
		name := fmt.Sprintf("%s#%d", prog.Name, len(s.procs)+1)
		p, err := s.spawn(name, workload, prog)
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
	}
	return procs, nil
}

// SpawnProgram assembles and loads a custom program with its circuit
// table, for applications outside the registry. Use Expect on the
// returned handle to have Result.Err verify the exit code.
func (s *Session) SpawnProgram(name, source string, images []*Image) (*Proc, error) {
	if s.ran {
		return nil, errAlreadyRan
	}
	return s.spawn(name, "", Program{Name: name, Source: source, Images: images})
}

func (s *Session) spawn(name, workload string, prog Program) (*Proc, error) {
	// Registry templates recur across sessions and sweep cells at the same
	// deterministic bases, so their assembled programs are cached
	// process-wide; one-off SpawnProgram sources assemble directly (a
	// cache would only retain them forever for a zero hit rate).
	assemble := asm.Assemble
	if workload != "" {
		assemble = assembleCached
	}
	assembled, err := assemble(prog.Source, s.k.NextBase())
	if err != nil {
		return nil, fmt.Errorf("protean: assemble %s: %w", name, err)
	}
	kp, err := s.k.Spawn(name, assembled, prog.Images)
	if err != nil {
		return nil, err
	}
	if s.cfg.lintWarnings {
		s.lintImages(name, prog.Images)
	}
	if s.cfg.timingStats {
		s.timeImages(name, prog.Images)
	}
	p := &Proc{PID: kp.PID, Name: name, Workload: workload, expected: prog.Expected}
	s.procs = append(s.procs, p)
	return p, nil
}

// lintImages emits one EventLintWarning per static-analysis finding in a
// program's circuit images, once per distinct configuration key per
// session (the lint pass itself is cached process-wide; see Image.Lint).
func (s *Session) lintImages(proc string, images []*Image) {
	for _, img := range images {
		if img == nil || s.linted[img.Key()] {
			continue
		}
		if s.linted == nil {
			s.linted = map[core.ConfigKey]bool{}
		}
		s.linted[img.Key()] = true
		for _, msg := range img.Lint() {
			s.emit(Event{
				Kind:    EventLintWarning,
				Label:   img.Name,
				Message: fmt.Sprintf("lint: image %s (registered by %s): %s", img.Name, proc, msg),
			})
		}
	}
}

// timeImages emits one EventTiming per distinct circuit image with its
// static critical-path summary (the analysis is cached process-wide by
// configuration key; see Image.Timing). Images without a decodable
// configuration have no static delay and stay silent.
func (s *Session) timeImages(proc string, images []*Image) {
	for _, img := range images {
		if img == nil || s.timed[img.Key()] {
			continue
		}
		if s.timed == nil {
			s.timed = map[core.ConfigKey]bool{}
		}
		s.timed[img.Key()] = true
		rep := img.Timing()
		if rep == nil {
			continue
		}
		msg := fmt.Sprintf("timing: image %s (registered by %s): depth %d levels, %d LUTs", img.Name, proc, rep.MaxDepth, rep.LUTs)
		if crit := rep.Critical(); crit != nil {
			msg += fmt.Sprintf(", critical %s", crit.Endpoint())
		}
		s.emit(Event{Kind: EventTiming, Label: img.Name, Message: msg})
	}
}

var errAlreadyRan = errors.New("protean: session already run — build a new Session per run")

// Run executes the session until every process has finished, the cycle
// budget is exhausted, or ctx is cancelled. Cancellation is polled every
// few thousand simulated instructions, so a cancelled context stops the
// simulation promptly with an error wrapping ctx.Err(). On success the
// returned Result carries every process outcome and the run statistics;
// call Result.Err to verify checksums.
func (s *Session) Run(ctx context.Context) (*Result, error) {
	if s.ran {
		return nil, errAlreadyRan
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if len(s.procs) == 0 {
		return nil, fmt.Errorf("protean: nothing to run — spawn a workload first")
	}
	s.ran = true
	s.emit(Event{
		Kind:  EventRunStart,
		Procs: len(s.procs),
		Message: fmt.Sprintf("run: %d processes, quantum %d, policy %s",
			len(s.procs), s.cfg.quantum, s.cfg.policy),
	})
	if err := s.k.Start(); err != nil {
		return nil, err
	}
	var stop func() error
	if ctx.Done() != nil {
		stop = ctx.Err
	}
	if err := s.k.RunUntil(s.cfg.budget, stop); err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return nil, fmt.Errorf("protean: run cancelled after %d cycles: %w", s.m.Cycles(), err)
		}
		return nil, err
	}
	res := s.result()
	if s.cfg.metrics {
		res.Metrics = s.metricsSnapshot(res)
	}
	if s.cfg.traceOut != nil {
		if err := s.writeChromeTrace(s.cfg.traceOut, res); err != nil {
			return nil, fmt.Errorf("protean: write trace: %w", err)
		}
	}
	s.emit(Event{
		Kind:  EventRunDone,
		Procs: len(s.procs),
		Cycle: res.Cycles,
		OK:    res.Err() == nil,
		Message: fmt.Sprintf("done: %d processes in %d cycles (%d context switches, %d faults)",
			len(s.procs), res.Cycles, res.Kernel.ContextSwitches, res.CIS.Faults),
	})
	return res, nil
}

func (s *Session) emit(e Event) {
	if s.cfg.sink != nil {
		s.cfg.sink.Event(e)
	}
}

func (s *Session) result() *Result {
	res := &Result{
		Cycles:  s.m.Cycles(),
		CIS:     s.k.CIS.Stats,
		Kernel:  s.k.Stats,
		RFU:     s.m.RFU.Stats,
		TLB1:    TLBStats{Lookups: s.m.RFU.TLB1.Lookups, Misses: s.m.RFU.TLB1.Misses},
		TLB2:    TLBStats{Lookups: s.m.RFU.TLB2.Lookups, Misses: s.m.RFU.TLB2.Misses},
		Console: s.k.Console(),
	}
	if s.tl != nil {
		res.Trace = s.tl.String()
	}
	for i, kp := range s.k.Processes() {
		pr := ProcResult{
			PID:        kp.PID,
			Name:       kp.Name,
			Workload:   s.procs[i].Workload,
			State:      kp.State,
			ExitCode:   kp.ExitCode,
			Expected:   s.procs[i].expected,
			Start:      kp.Stats.StartCycle,
			Completion: kp.Stats.CompletionCycle,
			Switches:   kp.Stats.Switches,
			Faults:     kp.Stats.Faults,
			Instrs:     kp.Stats.UserInstrs,
		}
		if pr.Completion > res.Completion {
			res.Completion = pr.Completion
		}
		res.Procs = append(res.Procs, pr)
	}
	return res
}
