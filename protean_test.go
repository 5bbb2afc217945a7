package protean_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"protean"
	"protean/internal/core"
	"protean/internal/fabric"
)

// testSpec keeps test circuit bitstreams small so configuration stalls do
// not dominate test runtime (the built-in workloads use the real 500-CLB
// spec).
var testSpec = fabric.ArraySpec{W: 5, H: 4}

// addImage is a behavioural 4-cycle adder circuit.
func addImage(name string) *protean.Image {
	return core.NewBehaviouralImage(core.BehaviouralSpec{
		Name:       name,
		Spec:       testSpec,
		StateWords: 1,
		Step: func(st []uint32, a, b uint32, init bool) (uint32, bool) {
			if init {
				st[0] = 1
			} else {
				st[0]++
			}
			return a + b, st[0] >= 4
		},
	})
}

const adderProgram = `
	ldr r0, =desc
	swi 3                      ; register custom instruction CID 7
	mov r0, #30
	mov r1, #12
	mcr p1, 0, r0, c0, c0
	mcr p1, 0, r1, c1, c0
	cdp p1, 7, c2, c0, c1      ; c2 = add(c0, c1) -- faults, loads, reissues
	mrc p1, 0, r2, c2, c0
	mov r0, r2
	swi 5                      ; print result
	mov r0, r2
	swi 0                      ; exit with it
desc:
	.word 7, 0, 0
`

func TestSpawnProgramEndToEnd(t *testing.T) {
	s, err := protean.New(protean.WithQuantum(100_000))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.SpawnProgram("quickstart", adderProgram, []*protean.Image{addImage("myadd")})
	if err != nil {
		t.Fatal(err)
	}
	p.Expect(42)
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Console != "42" {
		t.Errorf("console = %q", res.Console)
	}
	if len(res.Procs) != 1 || res.Procs[0].ExitCode != 42 || !res.Procs[0].OK() {
		t.Errorf("procs = %+v", res.Procs)
	}
	if res.CIS.Loads != 1 || res.CIS.Faults == 0 {
		t.Errorf("CIS stats: %+v", res.CIS)
	}
	if res.Cycles == 0 || res.Completion == 0 {
		t.Errorf("cycles=%d completion=%d", res.Cycles, res.Completion)
	}
}

func TestExpectMismatchReported(t *testing.T) {
	s, _ := protean.New()
	p, err := s.SpawnProgram("wrong", "mov r0, #7\n swi 0\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Expect(8)
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Result.Err() = %v, want checksum mismatch", err)
	}
}

// TestHeterogeneousMix is the acceptance scenario: one session running
// alpha, echo and twofish concurrently through the registry, every
// checksum verified against the Go models.
func TestHeterogeneousMix(t *testing.T) {
	s, err := protean.New(
		protean.WithQuantum(protean.Quantum1ms/10),
		protean.WithPolicy(protean.PolicyRandom),
		protean.WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spawn("alpha", 2, 2_000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spawn("echo", 1, 1_200); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spawn("twofish", 1, 60); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(res.Procs) != 4 {
		t.Fatalf("%d processes", len(res.Procs))
	}
	names := map[string]bool{}
	for _, p := range res.Procs {
		if !p.OK() {
			t.Errorf("%s failed: state=%v code=%#x", p.Name, p.State, p.ExitCode)
		}
		names[p.Workload] = true
	}
	for _, want := range []string{"alpha", "echo", "twofish"} {
		if !names[want] {
			t.Errorf("workload %s missing from results", want)
		}
	}
	// PIDs are session-global, so heterogeneous names never collide.
	if _, ok := res.Proc("alpha-hw-nosoft#1"); !ok {
		t.Errorf("expected alpha-hw-nosoft#1 in %v", names)
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	s, _ := protean.New()
	if _, err := s.Spawn("alpha", 1, 100); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx = %v", err)
	}
}

// TestRunCancelledMidFlight runs a program that never exits; only context
// cancellation can end the simulation, and it must do so promptly.
func TestRunCancelledMidFlight(t *testing.T) {
	s, _ := protean.New()
	if _, err := s.SpawnProgram("spin", "loop:\n b loop\n", nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	s, _ := protean.New()
	if _, err := s.SpawnProgram("spin", "loop:\n b loop\n", nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want context.DeadlineExceeded", err)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	s, _ := protean.New(protean.WithBudget(10_000))
	if _, err := s.SpawnProgram("spin", "loop:\n b loop\n", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("Run = %v, want budget exhaustion", err)
	}
}

func TestSessionMisuse(t *testing.T) {
	if _, err := protean.New(protean.WithTrace(-1)); err == nil {
		t.Error("negative trace capacity accepted")
	}
	// An all-zero cost model would silently become DefaultCosts in the
	// kernel, so the option must reject it outright.
	if _, err := protean.New(protean.WithCostModel(protean.CostModel{})); err == nil {
		t.Error("zero cost model accepted")
	}
	s, _ := protean.New()
	if _, err := s.Spawn("no-such-app", 1, 10); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := s.Spawn("alpha", 0, 10); err == nil {
		t.Error("zero instances accepted")
	}
	if _, err := s.Run(context.Background()); err == nil {
		t.Error("empty session ran")
	}
	// A failed empty Run does not poison the session...
	if _, err := s.Spawn("alpha", 1, 10); err != nil {
		t.Errorf("Spawn after rejected empty Run: %v", err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Errorf("Run after late spawn: %v", err)
	}
	// ...but a completed session is single-shot.
	if _, err := s.Run(context.Background()); err == nil {
		t.Error("second Run accepted")
	}
	if _, err := s.Spawn("alpha", 1, 10); err == nil {
		t.Error("Spawn after Run accepted")
	}
}

// TestWorkloadsSorted pins Workloads' ordering contract: the listing is
// sorted and stays sorted as names register, without ever iterating the
// registry map (the facade is determinism-bound; see internal/lint).
func TestWorkloadsSorted(t *testing.T) {
	names := protean.Workloads()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Workloads() not sorted: %v", names)
	}
	// Register a name that sorts before most built-ins and check it
	// lands in order, not at the end.
	reg := func(name string) {
		t.Helper()
		err := protean.RegisterWorkload(protean.Workload{
			Name: name,
			Build: func(items int, soft bool) (protean.Program, error) {
				return protean.Program{Name: name, Source: "swi 0\n"}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	reg("aaa/sort-probe")
	reg("zzz/sort-probe")
	after := protean.Workloads()
	if !sort.StringsAreSorted(after) {
		t.Fatalf("Workloads() not sorted after registration: %v", after)
	}
	if len(after) != len(names)+2 {
		t.Fatalf("Workloads() length = %d, want %d", len(after), len(names)+2)
	}
}

func TestWorkloadRegistry(t *testing.T) {
	names := protean.Workloads()
	for _, want := range []string{
		"alpha", "alpha/hw", "alpha/hw-nosoft", "alpha/baseline", "alpha/gate",
		"echo", "twofish", "twofish/baseline",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in workload %q not registered (have %v)", want, names)
		}
	}
	nopBuild := func(items int, soft bool) (protean.Program, error) {
		return protean.Program{Name: "nop", Source: "swi 0\n"}, nil
	}
	if err := protean.RegisterWorkload(protean.Workload{Name: "alpha", Build: nopBuild}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := protean.RegisterWorkload(protean.Workload{Name: "nobuilder"}); err == nil {
		t.Error("workload without builder accepted")
	}

	// A custom registered workload is spawnable like a built-in.
	err := protean.RegisterWorkload(protean.Workload{
		Name: "custom/answer",
		Build: func(items int, soft bool) (protean.Program, error) {
			return protean.Program{Name: "answer", Source: "mov r0, #42\n swi 0\n"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := protean.New()
	// No BaseItems: the default item count must be rejected...
	if _, err := s.Spawn("custom/answer", 1, 0); err == nil {
		t.Error("spawn without items accepted for workload with no default")
	}
	// ...but an explicit count works.
	if _, err := s.Spawn("custom/answer", 2, 1); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Procs {
		if p.ExitCode != 42 {
			t.Errorf("%s exit = %d", p.Name, p.ExitCode)
		}
	}
}

func TestScaleDefaults(t *testing.T) {
	s := protean.Scale{Factor: 100}
	if got := s.Items("alpha"); got != 40_000 {
		t.Errorf("alpha items at /100 = %d", got)
	}
	if got := s.Items("twofish/baseline"); got != 11_000 {
		t.Errorf("twofish/baseline items at /100 = %d", got)
	}
	if got := s.Items("no-such-app"); got != 0 {
		t.Errorf("unknown workload items = %d", got)
	}
	if q := s.Quantum(protean.Quantum10ms); q != 10_000 {
		t.Errorf("scaled quantum = %d", q)
	}
	var zero protean.Scale
	if zero.ConfigBytesPerCycle() != 1 {
		t.Error("zero scale must behave as factor 1")
	}
}

func TestStructuredProgressEvents(t *testing.T) {
	var events []protean.Event
	s, err := protean.New(protean.WithProgress(protean.SinkFunc(func(e protean.Event) {
		events = append(events, e)
	})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spawn("alpha", 2, 500); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var starts, exits, dones int
	for _, e := range events {
		switch e.Kind {
		case protean.EventRunStart:
			starts++
			if e.Procs != 2 {
				t.Errorf("run-start procs = %d", e.Procs)
			}
		case protean.EventProcessExit:
			exits++
			if e.PID == 0 || e.Cycle == 0 || !e.OK {
				t.Errorf("proc-exit event: %+v", e)
			}
		case protean.EventRunDone:
			dones++
			if !e.OK {
				t.Errorf("run-done not OK: %+v", e)
			}
		}
	}
	if starts != 1 || exits != 2 || dones != 1 {
		t.Errorf("events: %d starts, %d exits, %d dones", starts, exits, dones)
	}
}

func TestWriterSinkRendersLines(t *testing.T) {
	var buf bytes.Buffer
	sink := protean.WriterSink(&buf)
	sink.Event(protean.Event{Kind: protean.EventCellDone, Message: "preformatted line"})
	sink.Event(protean.Event{Kind: protean.EventRunDone, Label: "x", Cycle: 7})
	sink.Event(protean.Event{Kind: protean.EventJobDone, Label: "echo x2", Cycle: 42, Class: 3})
	want := "preformatted line\n" +
		"run-done x cycle=7\n" +
		"job echo x2                  [class 2] executed in           42 cycles (verified=false)\n"
	if buf.String() != want {
		t.Errorf("writer sink output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestWithTraceExposesEvents(t *testing.T) {
	s, _ := protean.New(protean.WithTrace(64))
	if _, err := s.Spawn("alpha", 1, 200); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Trace, "exit") {
		t.Errorf("trace missing exit event:\n%s", res.Trace)
	}
}

func TestParsePolicyFacade(t *testing.T) {
	for _, p := range []protean.Policy{
		protean.PolicyRoundRobin, protean.PolicyRandom, protean.PolicyLRU, protean.PolicySecondChance,
	} {
		got, err := protean.ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
}

// --- kernel syscall edge cases exercised through the public API ---

// TestBadRegistrationDescriptor registers a custom instruction whose
// descriptor pointer aims at unmapped memory: the kernel must kill the
// process, not crash the simulation.
func TestBadRegistrationDescriptor(t *testing.T) {
	s, _ := protean.New()
	_, err := s.SpawnProgram("baddesc", `
	ldr r0, =0xF8000000        ; unmapped: descriptor read faults
	swi 3
	mov r0, #0
	swi 0
`, []*protean.Image{addImage("unused")})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs[0].State != protean.ProcKilled {
		t.Fatalf("process state = %v, want killed", res.Procs[0].State)
	}
	if res.Kernel.Kills != 1 {
		t.Errorf("kills = %d", res.Kernel.Kills)
	}
	if err := res.Err(); err == nil || !strings.Contains(err.Error(), "killed") {
		t.Errorf("Result.Err() = %v", err)
	}
}

// TestUnregisterNonResident unregisters a CID that was never registered
// (must be a harmless no-op) and one that is registered but has never
// faulted its circuit onto the array, then exits cleanly.
func TestUnregisterNonResident(t *testing.T) {
	s, _ := protean.New()
	p, err := s.SpawnProgram("unreg", `
	mov r0, #5
	swi 7                      ; unregister a CID that was never registered
	ldr r0, =desc
	swi 3                      ; register CID 7
	mov r0, #7
	swi 7                      ; unregister it while non-resident
	mov r0, #42
	swi 0
desc:
	.word 7, 0, 0
`, []*protean.Image{addImage("adder")})
	if err != nil {
		t.Fatal(err)
	}
	p.Expect(42)
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.CIS.Loads != 0 {
		t.Errorf("unregister of a non-resident CID loaded hardware: %+v", res.CIS)
	}
}

// TestFaultStormKill drives the MaxFaults runaway guard through the
// facade: a 1-entry dispatch TLB plus two alternating custom instructions
// make every issue a fault, and the kernel must kill the process once the
// per-process fault budget is spent.
func TestFaultStormKill(t *testing.T) {
	s, err := protean.New(
		protean.WithTLB1Entries(1),
		protean.WithMaxFaults(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	img := addImage("adder")
	_, err = s.SpawnProgram("storm", `
	ldr r0, =d1
	swi 3
	ldr r0, =d2
	swi 3
	mov r1, #1
	mcr p1, 0, r1, c0, c0
	mcr p1, 0, r1, c1, c0
loop:
	cdp p1, 1, c2, c0, c1      ; each issue misses the 1-entry TLB
	cdp p1, 2, c2, c0, c1
	b loop
d1:
	.word 1, 0, 0
d2:
	.word 2, 0, 0
`, []*protean.Image{img})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := res.Procs[0]
	if p.State != protean.ProcKilled {
		t.Fatalf("fault storm not killed: state=%v faults=%d", p.State, p.Faults)
	}
	if p.Faults <= 16 {
		t.Errorf("kill before exceeding the fault budget: %d", p.Faults)
	}
	if res.Kernel.Kills != 1 {
		t.Errorf("kills = %d", res.Kernel.Kills)
	}
}

// dirtyImage builds a gate-level bitstream image with deliberate lint
// findings: a dead inverter cone and an unobserved flip-flop, encoded
// without the Optimize pass that would sweep them.
func dirtyImage(t *testing.T, name string) *protean.Image {
	t.Helper()
	// Start from an optimised passthrough (it needs the full PFU port
	// shape) and graft on a dead inverter plus an unobserved flip-flop,
	// bypassing Optimize so the findings survive into the bitstream.
	n := fabric.Passthrough32()
	n.Name = name
	fabric.Optimize(n)
	a, _ := n.PortByName("a")
	latched := fabric.Net(n.NumNets)
	q := latched + 1
	dead := latched + 2
	n.NumNets += 3
	n.LUTs = append(n.LUTs,
		// Feeds only the unobserved flip-flop below.
		fabric.LUT{
			In:    [4]fabric.Net{a.Nets[0], fabric.NilNet, fabric.NilNet, fabric.NilNet},
			Table: fabric.CanonTable(0x1, 1),
			Out:   latched,
		},
		// Feeds nothing at all: a dead cone.
		fabric.LUT{
			In:    [4]fabric.Net{a.Nets[1], fabric.NilNet, fabric.NilNet, fabric.NilNet},
			Table: fabric.CanonTable(0x1, 1),
			Out:   dead,
		})
	n.FFs = append(n.FFs, fabric.FF{D: latched, Q: q})
	cfg, _, err := fabric.Place(n, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := fabric.EncodeStatic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.NewBitstreamImage(name, bits)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestLintWarningsEmitted pins the opt-in image-lint hook: a session
// built with WithLintWarnings emits one EventLintWarning per finding at
// spawn time, dedupes repeated registrations of the same configuration,
// and stays silent for images with nothing to report.
func TestLintWarningsEmitted(t *testing.T) {
	var mu sync.Mutex
	var got []protean.Event
	sink := protean.SinkFunc(func(e protean.Event) {
		mu.Lock()
		defer mu.Unlock()
		if e.Kind == protean.EventLintWarning {
			got = append(got, e)
		}
	})
	s, err := protean.New(protean.WithLintWarnings(), protean.WithProgress(sink))
	if err != nil {
		t.Fatal(err)
	}
	img := dirtyImage(t, "dirty")
	if findings := img.Lint(); len(findings) < 2 {
		t.Fatalf("Image.Lint = %v, want a dead cone and an unused FF", findings)
	}
	// Two processes registering the same image: findings reported once.
	for _, name := range []string{"p1", "p2"} {
		if _, err := s.SpawnProgram(name, "mov r0, #0\n swi 0\n", []*protean.Image{img}); err != nil {
			t.Fatal(err)
		}
	}
	// A behavioural image has no netlist: nothing to report.
	if _, err := s.SpawnProgram("p3", "mov r0, #0\n swi 0\n", []*protean.Image{addImage("clean")}); err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 {
		t.Fatalf("lint events = %v, want the dirty image's findings", got)
	}
	for _, e := range got {
		if e.Label != "dirty" {
			t.Errorf("lint event for image %q: %s", e.Label, e.Message)
		}
		if !strings.Contains(e.Message, "lint: image dirty") {
			t.Errorf("unexpected message %q", e.Message)
		}
	}
	seen := map[string]bool{}
	for _, e := range got {
		if seen[e.Message] {
			t.Errorf("finding reported twice: %q", e.Message)
		}
		seen[e.Message] = true
	}
	// The session without the option stays silent.
	var quiet []protean.Event
	qsink := protean.SinkFunc(func(e protean.Event) {
		mu.Lock()
		defer mu.Unlock()
		if e.Kind == protean.EventLintWarning {
			quiet = append(quiet, e)
		}
	})
	s2, err := protean.New(protean.WithProgress(qsink))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.SpawnProgram("p1", "mov r0, #0\n swi 0\n", []*protean.Image{img}); err != nil {
		t.Fatal(err)
	}
	if len(quiet) != 0 {
		t.Errorf("lint events without WithLintWarnings: %v", quiet)
	}
}

// TestSessionSpecLintWarnings pins the scenario spelling of the hook:
// lint_warnings round-trips through the SessionSpec JSON field.
func TestSessionSpecLintWarnings(t *testing.T) {
	sc := protean.Scenario{
		Nodes: []protean.NodeSpec{{Session: protean.SessionSpec{LintWarnings: true}}},
		Jobs:  []protean.JobSpec{{Workload: "echo", Items: 4}},
	}
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"lint_warnings":true`) {
		t.Fatalf("saved spec lacks lint_warnings: %s", data)
	}
	back, err := protean.LoadScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Nodes[0].Session.LintWarnings {
		t.Fatal("lint_warnings lost on reload")
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}
