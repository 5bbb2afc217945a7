package fabric

import (
	"math/rand"
	"slices"
	"testing"
)

// stepper is an engine clocked one cycle at a time: an Instance or the
// interpretive PFU.
type stepper interface {
	Step(a, b uint32, init bool) (uint32, bool)
}

// stepRun is the oracle for Instance.Run: the same issue clocked one
// Step per cycle, init on the first cycle and low after, stopping at
// done or after max cycles (at least one).
func stepRun(in stepper, a, b uint32, init bool, max int) (out uint32, cycles int, done bool) {
	for n := 1; ; n++ {
		if out, done = in.Step(a, b, init); done {
			return out, n, true
		}
		if n >= max {
			return 0, n, false
		}
		init = false
	}
}

// burstConfig places and compiles a random configuration built from
// seed that has a burst: a random netlist (init-heavy half the time)
// with a done chain and hidden flip-flops, as
// TestBurstMatchesSteppingAndPFU uses.
func burstConfig(t *testing.T, seed int64) (*ArrayConfig, *Compiled) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var n *Netlist
	if rng.Intn(2) == 0 {
		n, _ = randomCircuit(rng, 5+rng.Intn(40), rng.Intn(8))
	} else {
		n = initHeavyCircuit(rng, 10+rng.Intn(40))
	}
	withDoneChain(n, 2+rng.Intn(12))
	cfg, _, err := Place(n, DefaultPFUSpec)
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	withHiddenFFs(rng, cfg)
	return cfg, compileT(t, cfg)
}

// FuzzInstanceRun drives an instance through a random sequence of Runs
// — fresh issues and reissues, cut at every max in 0..2K, with init
// flipped and one or both operands changed — interleaved with Step and
// Reset, and requires every result, cycle count and done, and the
// registers after every op, to match the interpretive PFU stepped one
// cycle at a time. This pins the lazy cut: a cut instruction resumes,
// settles or is dropped exactly as the cycles it was charged would have
// left it. The registers are read without settling a cut, so a pending
// cut survives the comparison. The twin is the reference engine, not a
// second compiled instance, so a mapping fault the burst and the
// per-cycle schedules share cannot hide; and every generated program
// must pass Verify.
func FuzzInstanceRun(f *testing.F) {
	// Each rule of the cut, once: Reset (5,·) so the next issue is
	// fresh, cut it after one cycle (0,1), then reissue with a new a
	// (1,·) or b (2,·), or with init high (3,·); or Step (4) or Reset
	// before a reissue; or cut again; finishing (0,0xff) after.
	rules := [][]byte{
		{1, 0xff, 0, 0xff, 0, 0xff},
		{2, 0xff, 0, 0xff, 0, 0xff},
		{3, 0xff, 0, 0xff, 0, 0xff},
		{4, 0, 0, 0xff, 0, 0xff},
		{5, 0, 0, 1, 0, 0xff, 0, 0xff},
		{0, 1, 0, 1, 0, 0xff, 0, 0xff},
	}
	var seq []byte
	for _, r := range rules {
		seq = append(append(seq, 5, 0, 0, 1), r...)
	}
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, seq)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256] // longer sequences only slow the fuzzer down
		}
		cfg, prog := burstConfig(t, seed)
		k := prog.BurstCycles()
		if k == 0 {
			t.Skip("no burst")
		}
		if err := prog.Verify(cfg); err != nil {
			t.Fatalf("Verify: %v", err)
		}
		rng := rand.New(rand.NewSource(seed))
		got := prog.NewInstance()
		want, err := NewPFU(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, b := rng.Uint32(), rng.Uint32()
		status := true // the §4.4 status bit: init of the next issue
		for len(ops) >= 2 {
			op, arg := ops[0]%6, int(ops[1])
			ops = ops[2:]
			switch op {
			case 0, 1, 2, 3: // an issue as the RFU makes one
				switch op {
				case 1:
					a = rng.Uint32()
				case 2:
					b = rng.Uint32()
				}
				init := status
				if op == 3 {
					init = !init
				}
				max := arg % (2*k + 1)
				gOut, gN, gDone := got.Run(a, b, init, max)
				wOut, wN, wDone := stepRun(want, a, b, init, max)
				if gOut != wOut || gN != wN || gDone != wDone {
					t.Fatalf("Run(init=%v, max=%d): got (%#x, %d, %v), stepping (%#x, %d, %v)",
						init, max, gOut, gN, gDone, wOut, wN, wDone)
				}
				status = gDone
			case 4:
				gOut, gDone := got.Step(a, b, arg&1 != 0)
				wOut, wDone := want.Step(a, b, arg&1 != 0)
				if gOut != wOut || gDone != wDone {
					t.Fatalf("Step: got (%#x, %v), want (%#x, %v)", gOut, gDone, wOut, wDone)
				}
				status = gDone
			case 5:
				got.Reset()
				want.Reset()
				status = true
			}
			if !slices.Equal(instRegs(got), pfuRegs(want)) {
				t.Fatalf("registers differ after op %d", op)
			}
		}
	})
}

// TestRunResumesCutBurst cuts a fresh alphablend issue at every cycle
// 1..K−1 and resumes it, and requires the resume to finish in the cycles
// left with the burst's result and registers, without clocking the
// cut cycles one by one: the cut leaves the registers as issued.
func TestRunResumesCutBurst(t *testing.T) {
	prog := compileT(t, placeT(t, AlphaBlend()))
	k := prog.BurstCycles()
	if k != AlphaBlendCycles {
		t.Fatalf("alphablend burst is %d cycles, want %d", k, AlphaBlendCycles)
	}
	const a, b = 0x80ff4020, 0x10203040
	ref := prog.NewInstance()
	want, _, _ := ref.Run(a, b, true, k)
	for cut := 1; cut < k; cut++ {
		in := prog.NewInstance()
		issued := slices.Clone(in.ffQ)
		if out, n, done := in.Run(a, b, true, cut); out != 0 || n != cut || done {
			t.Fatalf("cut at %d: (%#x, %d, %v), want (0, %d, false)", cut, out, n, done, cut)
		}
		if !slices.Equal(in.ffQ, issued) {
			t.Fatalf("cut at %d clocked the registers", cut)
		}
		out, n, done := in.Run(a, b, false, k)
		if out != want || n != k-cut || !done {
			t.Fatalf("resume after a cut at %d: (%#x, %d, %v), want (%#x, %d, true)", cut, out, n, done, want, k-cut)
		}
		if !slices.Equal(in.ffQ, ref.ffQ) {
			t.Fatalf("resume after a cut at %d: registers differ from the burst's", cut)
		}
	}
}
