package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"protean"
	"protean/internal/server"
	"protean/internal/wire"
)

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"contention", "fleet", "daemon"}

// Workload shapes. Item counts are per instance. Every session and job
// runs the same three applications at fixed sizes, so templates and
// assembled programs are built once per process, during set-up.
const (
	// scale shrinks every session (see protean.Scale).
	scale = 800

	// contention: one over-committed workstation, six circuits on four
	// PFUs under a 1 ms quantum.
	contentionGateItems = 500
	contentionTwoItems  = 130
	contentionEchoItems = 500

	// fleet: a wide open-loop fleet through Start/Wait.
	fleetNodes    = 1024
	fleetStore    = 2
	fleetJobsEach = 256
	fleetItems    = 100
	fleetMeanGap  = 2_000
	fleetWorkers  = 2

	// daemon: small fleets submitted to an in-process proteand. Two
	// clients share one job slot, so one job queues while the other
	// runs: with two slots, two jobs plus the collector overcommit the
	// two cores, and queueing for a core amplified every change in
	// machine speed (p50 moved 28% between two sets of identical runs).
	daemonNodes     = 16
	daemonJobsEach  = 32
	daemonItems     = 100
	daemonMeanGap   = 2_000
	daemonClients   = 2
	daemonMaxActive = 1

	// instances is how many copies of each application a session or
	// job runs.
	instances = 2
)

// opInput is everything one op needs. It is a pure function of
// (workload, seed, index): see genOp.
type opInput struct {
	Index int
	// SessionSeed seeds a contention op's random replacement policy.
	SessionSeed int64
	// Scenario is a fleet or daemon op's spec; Spec is a daemon op's
	// scenario rendered as the canonical JSON its client submits.
	Scenario protean.Scenario
	Spec     []byte
}

// splitmix64 is the finaliser of the SplitMix64 generator: a bijective
// mix, so distinct (seed, index) pairs give unrelated op inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opRand returns the k-th random word of op i of a workload run.
func opRand(workload string, seed int64, i, k int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	x := splitmix64(h.Sum64() ^ uint64(seed))
	x = splitmix64(x ^ uint64(i))
	return splitmix64(x ^ uint64(k))
}

// genOp derives op i's inputs from the workload name and run seed alone.
func genOp(workload string, seed int64, i int) (opInput, error) {
	in := opInput{Index: i}
	r := func(k int) uint64 { return opRand(workload, seed, i, k) }
	opSeed := int64(r(0) >> 1) // any int64 is valid; positive reads better
	switch workload {
	case "contention":
		in.SessionSeed = opSeed
	case "fleet":
		in.Scenario = fleetScenario(opSeed, fleetNodes, fleetJobsEach, fleetItems,
			jitter(fleetMeanGap, r(1)), fleetWorkers)
		in.Scenario.Nodes[0].StoreSlots = fleetStore
	case "daemon":
		in.Scenario = fleetScenario(opSeed, daemonNodes, daemonJobsEach, daemonItems,
			jitter(daemonMeanGap, r(1)), 1)
		spec, err := json.Marshal(in.Scenario)
		if err != nil {
			return opInput{}, fmt.Errorf("daemon op %d spec: %w", i, err)
		}
		in.Spec = spec
	default:
		return opInput{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return in, nil
}

// jitter spreads a mean gap over [3/4, 5/4) of its nominal value.
func jitter(gap uint64, r uint64) uint64 { return gap*3/4 + r%(gap/2) }

// fleetScenario builds a fleet of identical nodes running three same-spec
// job groups, so the dispatcher can fold each group into bit-sliced lane
// batches (the default round-robin CIS policy is seed-insensitive, which
// batching requires).
func fleetScenario(seed int64, nodes, jobsEach, items int, gap uint64, workers int) protean.Scenario {
	return protean.Scenario{
		Seed:      seed,
		Workers:   workers,
		Nodes:     []protean.NodeSpec{{Count: nodes, Session: protean.SessionSpec{Scale: scale}}},
		Arrivals:  protean.ArrivalSpec{Process: protean.ArrivalPoisson, MeanGap: gap},
		Placement: protean.PlacementSpec{Policy: "config-affinity"},
		Jobs: []protean.JobSpec{
			{Workload: "alpha/gate", Instances: instances, Items: items, Count: jobsEach},
			{Workload: "twofish/hw-nosoft", Instances: instances, Items: items, Count: jobsEach},
			{Workload: "echo/hw-nosoft", Instances: instances, Items: items, Count: jobsEach},
		},
	}
}

// outcome is one verified op: the result the digest covers, the
// simulated guest instructions it executed and, for the daemon, the job
// id the result was fetched under.
type outcome struct {
	result any // *protean.Result or *protean.FleetResult
	instrs uint64
	job    uint64
}

// runner executes one workload's ops in one process. Ops on different
// clients may run concurrently; ops on one client never do.
type runner interface {
	// clients is how many ops may be in flight at once.
	clients() int
	// op runs and verifies one op on the given client. When lo is
	// non-nil it records the spans of the layers the op calls into.
	op(ctx context.Context, client int, in opInput, lo *layerOp) (outcome, error)
	// observe records a traced op's counters and the side measurements
	// taken beside it, after its latency has been taken.
	observe(in opInput, out outcome, lo *layerOp) error
	// check re-derives a sampled op's result by an independent path and
	// reports any byte difference. It runs outside the timed window.
	check(ctx context.Context, in opInput, out outcome) error
	close()
}

// open performs a workload's per-process set-up.
func open(workload string) (runner, error) {
	switch workload {
	case "contention":
		return contention{}, nil
	case "fleet":
		return fleet{}, nil
	case "daemon":
		return openDaemon()
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// contention runs the paper's Figure-2 thrash regime through the Session
// API: six circuits from three applications contend for four PFUs under
// a 1 ms quantum with random replacement.
type contention struct{}

func (contention) clients() int { return 1 }
func (contention) close()       {}

func (contention) op(ctx context.Context, _ int, in opInput, lo *layerOp) (outcome, error) {
	t := lo.start()
	s, err := protean.New(
		protean.WithScale(scale),
		protean.WithQuantum(protean.Scale{Factor: scale}.Quantum(protean.Quantum1ms)),
		protean.WithPolicy(protean.PolicyRandom),
		protean.WithSeed(in.SessionSeed),
	)
	if err != nil {
		return outcome{}, err
	}
	t = lo.span("protean.new_ms", t)
	for _, sp := range []struct {
		name  string
		items int
	}{
		{"alpha/gate", contentionGateItems},
		{"twofish/hw-nosoft", contentionTwoItems},
		{"echo/hw-nosoft", contentionEchoItems},
	} {
		if _, err := s.Spawn(sp.name, instances, sp.items); err != nil {
			return outcome{}, err
		}
	}
	t = lo.span("protean.spawn_ms", t)
	res, err := s.Run(ctx)
	if err != nil {
		return outcome{}, err
	}
	lo.span("protean.run_ms", t)
	lo.sim(lo.get("protean.run_ms"))
	if err := res.Err(); err != nil {
		return outcome{}, err
	}
	return outcome{result: res, instrs: resultInstrs(res)}, nil
}

func (contention) observe(_ opInput, out outcome, lo *layerOp) error {
	lo.session(out.result.(*protean.Result))
	return nil
}

// check re-runs the session: the same seed must give the same bytes.
func (c contention) check(ctx context.Context, in opInput, out outcome) error {
	again, err := c.op(ctx, 0, in, nil)
	if err != nil {
		return err
	}
	return sameDigest("contention re-run", out.result, again.result)
}

// fleet runs a wide open-loop fleet through protean.Start / Runner.Wait.
type fleet struct{}

func (fleet) clients() int { return 1 }
func (fleet) close()       {}

func (fleet) op(ctx context.Context, _ int, in opInput, lo *layerOp) (outcome, error) {
	var opts []protean.StartOption
	var fs *fleetSink
	if lo != nil {
		fs = &fleetSink{}
		opts = append(opts, protean.WithRunProgress(fs))
	}
	t := lo.start()
	r, err := protean.Start(ctx, in.Scenario, opts...)
	if err != nil {
		return outcome{}, err
	}
	started := lo.span("protean.resolve_ms", t)
	fr, err := r.Wait()
	if err != nil {
		return outcome{}, err
	}
	if err := fr.Err(); err != nil {
		return outcome{}, err
	}
	if fs != nil {
		fs.record(lo, started)
	}
	return outcome{result: fr, instrs: fleetInstrs(fr)}, nil
}

func (fleet) observe(_ opInput, out outcome, lo *layerOp) error {
	lo.fleet(out.result.(*protean.FleetResult), true)
	return lo.probeNew()
}

// check re-runs the spec serially and without lane batching: worker
// count and batching are host-side knobs the FleetResult bytes must not
// depend on.
func (f fleet) check(ctx context.Context, in opInput, out outcome) error {
	in.Scenario.Workers, in.Scenario.Lanes = 1, 1
	again, err := f.op(ctx, 0, in, nil)
	if err != nil {
		return err
	}
	return sameDigest("fleet at workers 1, lanes 1", out.result, again.result)
}

// fleetSink timestamps a fleet's progress events on the host clock: the
// last EventJobDone ends execution, EventFleetDone ends replay. Job
// events arrive from the worker goroutines, so the fields are atomic.
type fleetSink struct {
	lastJob atomic.Int64 // unix nanos of the latest EventJobDone
	done    atomic.Int64 // unix nanos of EventFleetDone
}

func (fs *fleetSink) Event(e protean.Event) {
	now := time.Now().UnixNano()
	switch e.Kind {
	case protean.EventJobDone:
		for {
			old := fs.lastJob.Load()
			if now <= old || fs.lastJob.CompareAndSwap(old, now) {
				break
			}
		}
	case protean.EventFleetDone:
		fs.done.Store(now)
	}
}

// record splits the run after Start returned into execute and replay.
func (fs *fleetSink) record(lo *layerOp, started time.Time) {
	last, done := fs.lastJob.Load(), fs.done.Load()
	if last == 0 || done == 0 {
		return
	}
	lo.add("cluster.execute_ms", ms(time.Duration(last-started.UnixNano())))
	lo.add("cluster.replay_ms", ms(time.Duration(done-last)))
	lo.sim(lo.get("cluster.execute_ms"))
}

// daemon drives an in-process proteand over a unix socket, one
// closed-loop client per connection.
//
// proteand's job table keeps every finished FleetResult, so a daemon
// serving the whole window would make each op slower than the last, by
// an amount set by how many ops the machine managed so far. The
// benchmark restarts the daemon after every daemonEpoch ops instead:
// retention then cycles through the same 0..daemonEpoch-1 jobs however
// long the window and however fast the machine.
type daemon struct {
	mu      sync.RWMutex // shared by ops, exclusive for a restart
	srv     *server.Server
	serveWG sync.WaitGroup
	conns   []*server.Client
	done    atomic.Int64 // ops finished, for the restart schedule
}

// daemonEpoch is how many ops one daemon instance serves.
const daemonEpoch = 256

// daemonSeq numbers the daemons a process starts, so abstract socket
// names never collide.
var daemonSeq atomic.Int64

func openDaemon() (*daemon, error) {
	d := &daemon{}
	return d, d.start()
}

// start launches a server on a fresh abstract unix socket (there is no
// file to create or remove) and dials its clients.
func (d *daemon) start() error {
	srv := server.New(server.Config{Name: "perfbench", MaxActive: daemonMaxActive})
	addr := fmt.Sprintf("@perfbench-%d-%d", os.Getpid(), daemonSeq.Add(1))
	l, err := net.Listen("unix", addr)
	if err != nil {
		return fmt.Errorf("daemon listen: %w", err)
	}
	d.srv, d.conns = srv, nil
	d.serveWG.Add(1)
	go func() {
		defer d.serveWG.Done()
		srv.Serve(l)
	}()
	for range daemonClients {
		c, err := server.Dial("unix", addr)
		if err != nil {
			d.stop()
			return fmt.Errorf("daemon dial: %w", err)
		}
		d.conns = append(d.conns, c)
	}
	return nil
}

// stop hangs up every client, then drains the server and waits for its
// accept loop to return.
func (d *daemon) stop() {
	for _, c := range d.conns {
		c.Close()
	}
	d.conns = nil
	d.srv.Shutdown()
	d.serveWG.Wait()
}

func (d *daemon) clients() int { return daemonClients }
func (d *daemon) close()       { d.stop() }

func (d *daemon) op(_ context.Context, client int, in opInput, lo *layerOp) (outcome, error) {
	out, err := d.roundTrip(client, in, lo)
	if err != nil {
		return outcome{}, err
	}
	if d.done.Add(1)%daemonEpoch == 0 {
		// Waits for the other client's op in flight, if any.
		d.mu.Lock()
		defer d.mu.Unlock()
		d.stop()
		if err := d.start(); err != nil {
			return outcome{}, err
		}
	}
	return out, nil
}

// roundTrip is one client's Submit → Watch until Done → Result.
func (d *daemon) roundTrip(client int, in opInput, lo *layerOp) (outcome, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if client >= len(d.conns) {
		return outcome{}, fmt.Errorf("daemon client %d is not connected", client)
	}
	c := d.conns[client]
	t := lo.start()
	job, err := c.Submit(in.Spec)
	if err != nil {
		return outcome{}, err
	}
	submitted := lo.span("server.submit_ms", t)
	var ws *watchSink
	var onEvent func(protean.Event)
	var onGap func(uint64)
	if lo != nil {
		ws = &watchSink{}
		onEvent, onGap = ws.event, ws.gap
	}
	done, err := c.Watch(job, onEvent, onGap)
	if err != nil {
		return outcome{}, err
	}
	t = lo.span("server.watch_ms", submitted)
	if done.State != wire.StateDone {
		return outcome{}, fmt.Errorf("daemon job %d ended %s: %s", job, done.State, done.Err)
	}
	fr, err := c.Result(job)
	if err != nil {
		return outcome{}, err
	}
	lo.span("server.result_ms", t)
	if err := fr.Err(); err != nil {
		return outcome{}, err
	}
	if ws != nil {
		ws.record(lo, submitted)
	}
	return outcome{result: fr, instrs: fleetInstrs(fr), job: job}, nil
}

func (d *daemon) observe(in opInput, out outcome, lo *layerOp) error {
	fr := out.result.(*protean.FleetResult)
	lo.fleet(fr, false)
	if err := lo.wireRoundTrip(out.job, fr); err != nil {
		return err
	}
	if err := lo.resolve(in.Spec); err != nil {
		return err
	}
	return lo.probeNew()
}

// check compares the FleetResult fetched over the wire with an
// in-process RunScenario of the same spec, byte for byte.
func (d *daemon) check(ctx context.Context, in opInput, out outcome) error {
	local, err := protean.RunScenario(ctx, in.Scenario)
	if err != nil {
		return err
	}
	return sameDigest("daemon wire result vs in-process RunScenario", local, out.result)
}

// watchSink counts a watch stream's frames and timestamps the fleet's
// last EventJobDone and its EventFleetDone as the client receives them.
type watchSink struct {
	events, dropped uint64
	lastJob, done   time.Time
}

func (ws *watchSink) event(e protean.Event) {
	ws.events++
	switch e.Kind {
	case protean.EventJobDone:
		ws.lastJob = time.Now()
	case protean.EventFleetDone:
		ws.done = time.Now()
	}
}

func (ws *watchSink) gap(n uint64) { ws.dropped += n }

func (ws *watchSink) record(lo *layerOp, submitted time.Time) {
	lo.add("server.events", float64(ws.events))
	lo.add("server.events_dropped", float64(ws.dropped))
	lo.add("events_sent", float64(ws.events+ws.dropped))
	if ws.lastJob.IsZero() || ws.done.IsZero() {
		return
	}
	lo.add("cluster.execute_ms", ms(ws.lastJob.Sub(submitted)))
	lo.add("cluster.replay_ms", ms(ws.done.Sub(ws.lastJob)))
	lo.sim(lo.get("cluster.execute_ms"))
}

// sameDigest reports whether two results render to the same JSON bytes.
func sameDigest(what string, want, got any) error {
	a, err := resultDigest(want)
	if err != nil {
		return err
	}
	b, err := resultDigest(got)
	if err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("%s: digest %.12s, want %.12s", what, b, a)
	}
	return nil
}

// resultInstrs sums a session's simulated guest instructions.
func resultInstrs(res *protean.Result) uint64 {
	var n uint64
	for _, p := range res.Procs {
		n += p.Instrs
	}
	return n
}

// fleetInstrs sums guest instructions over every admitted job. A
// lane-batched job shares its session Result with its batch, and still
// counts once per job.
func fleetInstrs(fr *protean.FleetResult) uint64 {
	var n uint64
	for _, j := range fr.Jobs {
		if j.Run != nil {
			n += resultInstrs(j.Run)
		}
	}
	return n
}
