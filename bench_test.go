// Benchmarks regenerating every figure and claim of the paper's evaluation
// (see DESIGN.md's per-experiment index), plus microbenchmarks of the
// simulation substrates. Figure benchmarks run a scaled sweep per
// iteration and report the headline completion times as custom metrics;
// run cmd/experiments for the full plots.
package protean_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"protean"
	"protean/internal/arm"
	"protean/internal/asm"
	"protean/internal/bus"
	"protean/internal/core"
	"protean/internal/exp"
	"protean/internal/fabric"
	"protean/internal/kernel"
	"protean/internal/machine"
	"protean/internal/workload"
)

// benchScale keeps each figure sweep to a few seconds; cmd/experiments
// defaults to a finer scale and -scale 1 is the paper-size run.
var benchScale = exp.Scale{Factor: 400}

// BenchmarkFig2BasicScheduling regenerates Figure 2: completion time vs
// concurrent instances for {echo, alpha, twofish} x {round robin, random}
// x {10ms, 1ms}, on the full GOMAXPROCS worker pool.
func BenchmarkFig2BasicScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := exp.Sweeper{Scale: benchScale, Seed: 1}.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if s, ok := fig.SeriesByLabel("Alpha, Round Robin, 1ms"); ok {
			if y, ok := s.At(exp.MaxInstances); ok {
				b.ReportMetric(float64(y), "alpha-rr-1ms-n8-cycles")
			}
		}
		if s, ok := fig.SeriesByLabel("Alpha, Round Robin, 10ms"); ok {
			if y, ok := s.At(exp.MaxInstances); ok {
				b.ReportMetric(float64(y), "alpha-rr-10ms-n8-cycles")
			}
		}
	}
}

// BenchmarkClusterAffinityVsRoundRobin runs the fleet placement sweep's
// standard thrash-heavy job stream on an 8-node cluster under round-robin
// and config-affinity placement, and reports how many times fewer total
// configuration loads (in-session CIS loads plus cold bitstream fetches
// into node stores) the affinity dispatcher needs — the fleet-scale
// version of the paper's Figure-2 cost.
func BenchmarkClusterAffinityVsRoundRobin(b *testing.B) {
	sw := exp.Sweeper{Scale: benchScale, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frs, err := sw.RunFleet(8, protean.PlaceRoundRobin, protean.PlaceAffinity)
		if err != nil {
			b.Fatal(err)
		}
		rr, aff := frs[0], frs[1]
		if aff.ConfigLoads() >= rr.ConfigLoads() {
			b.Fatalf("affinity config loads %d not below round-robin %d",
				aff.ConfigLoads(), rr.ConfigLoads())
		}
		b.ReportMetric(float64(rr.ConfigLoads())/float64(aff.ConfigLoads()), "config-loads-saved-x")
		b.ReportMetric(float64(aff.Makespan), "affinity-makespan-cycles")
	}
}

// BenchmarkClusterShareGroups measures fleet job throughput on a
// same-configuration thrash mix — many identical jobs per workload, the
// shape that folds into one shared session each — with sharing on
// (Lanes 0, the default) versus one session per job (Lanes 1),
// reporting jobs/sec for both and the speedup. Every iteration also
// asserts the sharing contract: the CSV render of the shared
// FleetResult is byte-identical to the one-session-per-job one.
func BenchmarkClusterShareGroups(b *testing.B) {
	const jobs = 24
	run := func(lanes int) *protean.FleetResult {
		sc := testScenario(jobs)
		sc.Arrivals = protean.ArrivalSpec{} // batch: every job present at cycle 0
		sc.Lanes = lanes
		fr, err := protean.RunScenario(context.Background(), sc)
		if err != nil {
			b.Fatal(err)
		}
		return fr
	}
	b.ReportAllocs()
	var shared *protean.FleetResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shared = run(0)
	}
	b.StopTimer()
	sharedPerRun := b.Elapsed().Seconds() / float64(b.N)
	start := time.Now()
	scalar := run(1)
	scalarPerRun := time.Since(start).Seconds()
	if scalar.Table().CSV() != shared.Table().CSV() {
		b.Fatal("shared fleet CSV differs from one session per job")
	}
	if sharedPerRun > 0 {
		b.ReportMetric(jobs/sharedPerRun, "jobs/sec")
		b.ReportMetric(scalarPerRun/sharedPerRun, "sharing-speedup-x")
	}
	if scalarPerRun > 0 {
		b.ReportMetric(jobs/scalarPerRun, "scalar-jobs/sec")
	}
}

// BenchmarkFleet1kNodes measures fleet job throughput at the 1k-node
// scale the cluster layer is sized for: 512 thrash-mix jobs placed by
// the affinity dispatcher across 1000 nodes, sharing on.
func BenchmarkFleet1kNodes(b *testing.B) {
	const nodes, jobs = 1000, 512
	run := func() *protean.FleetResult {
		sc := testScenario(jobs)
		sc.Nodes[0].Count = nodes
		sc.Arrivals = protean.ArrivalSpec{} // batch: every job present at cycle 0
		sc.Placement = protean.PlacementSpec{Policy: "config-affinity"}
		fr, err := protean.RunScenario(context.Background(), sc)
		if err != nil {
			b.Fatal(err)
		}
		return fr
	}
	b.ReportAllocs()
	var fr *protean.FleetResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr = run()
	}
	b.StopTimer()
	perRun := b.Elapsed().Seconds() / float64(b.N)
	if perRun > 0 {
		b.ReportMetric(jobs/perRun, "jobs/sec")
	}
	b.ReportMetric(float64(fr.Makespan), "makespan-cycles")
}

// BenchmarkFleetScenarioUntraced times untraced fleet scenario runs
// (RunScenario of a 9-job Poisson fleet under deferring admission and
// affinity placement), then makes one run with Chrome tracing and
// metrics enabled and checks that it produced a metrics snapshot. The
// traced/untraced cost ratio is perfbench's trace.overhead_ratio, which
// interleaves the two modes over many runs; a single probe here measured
// only noise.
func BenchmarkFleetScenarioUntraced(b *testing.B) {
	scenario := func() protean.Scenario {
		sc := testScenario(9)
		sc.Arrivals = protean.ArrivalSpec{Process: protean.ArrivalPoisson, MeanGap: 30_000}
		sc.Admission = protean.AdmissionSpec{Bound: 1, Policy: protean.AdmissionDefer}
		sc.Placement = protean.PlacementSpec{Policy: "affinity"}
		return sc
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := protean.RunScenario(context.Background(), scenario()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	traced := scenario()
	traced.Metrics = true
	fr, err := protean.RunScenario(context.Background(), traced, protean.WithRunTrace(io.Discard))
	if err != nil {
		b.Fatal(err)
	}
	if fr.Metrics == nil {
		b.Fatal("traced run produced no metrics snapshot")
	}
}

// BenchmarkFig2Serial regenerates Figure 2 with a single worker — the
// baseline the parallel sweep engine is measured against. Compare its
// wall time per op with BenchmarkFig2BasicScheduling.
func BenchmarkFig2Serial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := (exp.Sweeper{Scale: benchScale, Seed: 1, Workers: 1}).Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3SoftwareDispatch regenerates Figure 3: software dispatch vs
// circuit switching for {echo, alpha} x {10ms, 1ms}.
func BenchmarkFig3SoftwareDispatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := exp.Sweeper{Scale: benchScale, Seed: 1}.Figure3(false)
		if err != nil {
			b.Fatal(err)
		}
		if s, ok := fig.SeriesByLabel("Alpha, Soft, 1ms"); ok {
			if y, ok := s.At(exp.MaxInstances); ok {
				b.ReportMetric(float64(y), "alpha-soft-1ms-n8-cycles")
			}
		}
	}
}

// BenchmarkClaimC5Speedups measures each application's acceleration over
// its unaccelerated build.
func BenchmarkClaimC5Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Sweeper{Scale: benchScale}.SpeedupTable()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Speedup, r.App.String()+"-speedup-x")
		}
	}
}

// BenchmarkAblationPolicies compares the four replacement policies (A1).
func BenchmarkAblationPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := (exp.Sweeper{Scale: benchScale, Seed: 1}).PolicyAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationConfigSplit measures the value of the §4.1 split
// configuration (A2).
func BenchmarkAblationConfigSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := exp.Sweeper{Scale: benchScale, Seed: 1}.ConfigSplitAblation()
		if err != nil {
			b.Fatal(err)
		}
		split, _ := fig.SeriesByLabel("split (state frames)")
		full, _ := fig.SeriesByLabel("full readback")
		s8, _ := split.At(exp.MaxInstances)
		f8, _ := full.At(exp.MaxInstances)
		if s8 > 0 {
			b.ReportMetric(float64(f8)/float64(s8), "full-vs-split-ratio")
		}
	}
}

// BenchmarkAblationTLB measures dispatch-TLB pressure (A3).
func BenchmarkAblationTLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Sweeper{Scale: benchScale, Seed: 1}.TLBAblation()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Entries == 2 {
				b.ReportMetric(float64(r.MappingFaults), "mapping-faults-2-entry")
			}
		}
	}
}

// BenchmarkAblationQuantum sweeps the scheduling quantum (A4).
func BenchmarkAblationQuantum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := (exp.Sweeper{Scale: benchScale, Seed: 1}).QuantumSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSharing measures circuit-instance sharing (A5).
func BenchmarkAblationSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := (exp.Sweeper{Scale: benchScale, Seed: 1}).SharingAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate microbenchmarks ---

// BenchmarkTLBLookup measures one dispatch CAM probe.
func BenchmarkTLBLookup(b *testing.B) {
	tlb := core.NewTLB(16)
	for i := 0; i < 16; i++ {
		tlb.Insert(core.IDTuple{PID: uint32(i), CID: uint32(i)}, uint32(i%4))
	}
	key := core.IDTuple{PID: 15, CID: 15}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.Lookup(key)
	}
}

// BenchmarkInterpreter measures raw ARM interpretation speed on a tight
// arithmetic loop (reports simulated cycles per second).
func BenchmarkInterpreter(b *testing.B) {
	src := `
	ldr r4, =1000000000
spin:
	add r0, r0, r4
	eor r1, r0, r4, lsl #3
	subs r4, r4, #1
	bne spin
	swi 0
`
	prog, err := asm.Assemble(src, 0x8000)
	if err != nil {
		b.Fatal(err)
	}
	bb := bus.New()
	bb.MustMap(0, bus.NewRAM(1<<20))
	cpu := arm.New(bb)
	bb.LoadBytes(prog.Origin, prog.Code)
	cpu.SetCPSR(uint32(arm.ModeSys) | arm.FlagI | arm.FlagF)
	cpu.R[arm.PC] = prog.Origin
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Step()
	}
	b.ReportMetric(float64(cpu.Cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkMachineLoop measures the interpreter as a session runs it:
// one process under the kernel, the timer on at a 1 ms quantum and the
// stop hook polled, looping over arithmetic with no custom instructions.
// The loop runs b.N/4 iterations of four instructions, so ns/op is the
// host time per guest instruction, including the kernel loop, the device
// tick and the interrupt poll that BenchmarkInterpreter omits.
func BenchmarkMachineLoop(b *testing.B) {
	m := machine.New(machine.Config{})
	k := kernel.New(m, kernel.Config{Quantum: 100_000})
	// Four instructions per iteration, then the exit syscall.
	src := fmt.Sprintf(`
	ldr r4, =%d
spin:
	add r0, r0, r4
	eor r1, r0, r4, lsl #3
	subs r4, r4, #1
	bne spin
	mov r0, #0
	swi 0
`, max(1, b.N/4))
	prog, err := asm.Assemble(src, k.NextBase())
	if err != nil {
		b.Fatal(err)
	}
	p, err := k.Spawn("loop", prog, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := k.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := k.RunUntil(math.MaxUint64, func() error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if p.State != kernel.ProcExited {
		b.Fatalf("the loop process ended %v", p.State)
	}
}

// BenchmarkBehaviouralPFU measures one behavioural custom-instruction
// cycle.
func BenchmarkBehaviouralPFU(b *testing.B) {
	img := workload.AlphaImage()
	m, err := img.NewInstance()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(uint32(i), ^uint32(i), i%8 == 0, 1)
	}
}

// BenchmarkGatePFU measures one gate-level fabric cycle of the placed
// alpha-blend circuit (500-CLB array) on the interpretive reference
// engine. Compare with BenchmarkCompiledPFU.
func BenchmarkGatePFU(b *testing.B) {
	n := fabric.AlphaBlend()
	fabric.Optimize(n)
	cfg, _, err := fabric.Place(n, fabric.DefaultPFUSpec)
	if err != nil {
		b.Fatal(err)
	}
	pfu, err := fabric.NewPFU(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfu.Step(uint32(i), ^uint32(i), i%8 == 0)
	}
}

// BenchmarkCompiledPFU measures the same gate-level cycle on the compiled
// execution engine, and reports its inline-measured speedup over the
// interpretive step on the identical configuration as a custom metric
// (speedup-vs-gate-x).
func BenchmarkCompiledPFU(b *testing.B) {
	n := fabric.AlphaBlend()
	fabric.Optimize(n)
	cfg, _, err := fabric.Place(n, fabric.DefaultPFUSpec)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := fabric.Compile(cfg)
	if err != nil {
		b.Fatal(err)
	}
	inst := prog.NewInstance()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Step(uint32(i), ^uint32(i), i%8 == 0)
	}
	b.StopTimer()
	compiledPerOp := b.Elapsed().Seconds() / float64(b.N)
	pfu, err := fabric.NewPFU(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const probe = 20_000
	start := time.Now()
	for i := 0; i < probe; i++ {
		pfu.Step(uint32(i), ^uint32(i), i%8 == 0)
	}
	gatePerOp := time.Since(start).Seconds() / probe
	if compiledPerOp > 0 {
		b.ReportMetric(gatePerOp/compiledPerOp, "speedup-vs-gate-x")
	}
}

// BenchmarkCompile measures compiling the placed alpha-blend
// configuration into a program: the symbolic lowering, the unrolled
// burst, and the emitter's LUT mapping of all three schedules. Every
// workload that builds a gate-level image pays it once on its set-up
// path.
func BenchmarkCompile(b *testing.B) {
	n := fabric.AlphaBlend()
	fabric.Optimize(n)
	cfg, _, err := fabric.Place(n, fabric.DefaultPFUSpec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fabric.Compile(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledInstruction measures one whole custom instruction of
// the placed alpha-blend circuit on the compiled engine: fresh, an issue
// with init high that runs as one 8-cycle burst; reissue, the same
// instruction clocked one Step per cycle, as a cut instruction settles;
// cut, an issue cut after K/2 cycles by a timer edge and resumed through
// Run, which costs about one fresh. BenchmarkCompiledPFU measures one
// cycle.
func BenchmarkCompiledInstruction(b *testing.B) {
	n := fabric.AlphaBlend()
	fabric.Optimize(n)
	cfg, _, err := fabric.Place(n, fabric.DefaultPFUSpec)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := fabric.Compile(cfg)
	if err != nil {
		b.Fatal(err)
	}
	k := prog.BurstCycles()
	if k != fabric.AlphaBlendCycles {
		b.Fatalf("alphablend burst is %d cycles, want %d", k, fabric.AlphaBlendCycles)
	}
	inst := prog.NewInstance()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inst.Run(uint32(i), ^uint32(i), true, k)
		}
	})
	b.Run("reissue", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			init := true
			for done := false; !done; init = false {
				_, done = inst.Step(uint32(i), ^uint32(i), init)
			}
		}
	})
	b.Run("cut", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inst.Run(uint32(i), ^uint32(i), true, k/2)
			if _, _, done := inst.Run(uint32(i), ^uint32(i), false, k); !done {
				b.Fatal("the resumed instruction did not finish")
			}
		}
	})
}

// BenchmarkConfigLoad measures a full PFU configuration (instance
// stamp-out + reset), the operation the CIS performs on every load, for
// the behavioural alpha image.
func BenchmarkConfigLoad(b *testing.B) {
	rfu := core.New(core.DefaultConfig)
	img := workload.AlphaImage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rfu.LoadImage(i%4, img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConfigLoadGate measures the same CIS load for the gate-level
// image: after the compile-once rework this stamps an instance of the
// shared compiled program instead of decoding the 54 KB bitstream and
// rebuilding a PFU on every load.
func BenchmarkConfigLoadGate(b *testing.B) {
	rfu := core.New(core.DefaultConfig)
	img, err := workload.AlphaGateImage()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rfu.LoadImage(i%4, img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstanceStampOut measures stamping one execution-model
// instance from the gate image's shared compiled program, and reports the
// speedup over the old decode-per-load path (fabric.Decode + NewPFU per
// configuration, measured inline) as a custom metric.
func BenchmarkInstanceStampOut(b *testing.B) {
	img, err := workload.AlphaGateImage()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.NewInstance(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stampPerOp := b.Elapsed().Seconds() / float64(b.N)
	// The old per-load path: decode the full static bitstream and build an
	// interpretive PFU from it.
	n := fabric.AlphaBlend()
	fabric.Optimize(n)
	cfg, _, err := fabric.Place(n, fabric.DefaultPFUSpec)
	if err != nil {
		b.Fatal(err)
	}
	bits, err := fabric.EncodeStatic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const probe = 100
	start := time.Now()
	for i := 0; i < probe; i++ {
		decoded, err := fabric.Decode(bits)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fabric.NewPFU(decoded); err != nil {
			b.Fatal(err)
		}
	}
	decodePerOp := time.Since(start).Seconds() / probe
	if stampPerOp > 0 {
		b.ReportMetric(decodePerOp/stampPerOp, "speedup-vs-decode-x")
	}
}

// BenchmarkBitstreamDecode measures decoding a full 54 KB static image,
// part of gate-level configuration loading.
func BenchmarkBitstreamDecode(b *testing.B) {
	n := fabric.SeqMul16()
	fabric.Optimize(n)
	cfg, _, err := fabric.Place(n, fabric.DefaultPFUSpec)
	if err != nil {
		b.Fatal(err)
	}
	bits, err := fabric.EncodeStatic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bits)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fabric.Decode(bits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssembleTwofish measures assembling the largest application
// image (twofish with its 4 KB of tables), done once per spawned instance.
func BenchmarkAssembleTwofish(b *testing.B) {
	app, err := workload.BuildTwofish(100, workload.ModeHW)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(app.Source, kernel.RegionSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenario measures one end-to-end kernel run (4 alpha instances,
// no contention) per iteration.
func BenchmarkScenario(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(exp.Scenario{
			App:       workload.Alpha,
			Mode:      workload.ModeHWOnly,
			Instances: 4,
			Quantum:   benchScale.Quantum(exp.Quantum10ms),
			Scale:     benchScale,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
