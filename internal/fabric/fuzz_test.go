package fabric

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// fuzzSeedBits encodes a real circuit as seed material for FuzzDecode.
func fuzzSeedBits(mk func() *Netlist) []byte {
	n := mk()
	Optimize(n)
	cfg, _, err := Place(n, ArraySpec{W: 15, H: 10})
	if err != nil {
		panic(err)
	}
	bits, err := EncodeStatic(cfg)
	if err != nil {
		panic(err)
	}
	return bits
}

// FuzzDecode fuzzes the bitstream decoder — the one fabric surface that
// consumes attacker-shaped bytes (a real system loads configuration
// images from disk). Arbitrary input must never panic; Decode accepts
// only canonical bitstreams, so any input it accepts must re-encode to
// exactly its own bytes, header included, must survive the linter, and
// must either Compile or be rejected with an error (never a crash) —
// §2's functional-security gate. A program Compile accepts must pass
// Verify, which runs the validator on mutated configurations: latches
// that drive no wire, circuits without a burst and odd register layouts.
// The committed corpus under
// testdata/fuzz/FuzzDecode replays as plain subtests on every ordinary
// `go test` run.
func FuzzDecode(f *testing.F) {
	f.Add(fuzzSeedBits(Xor32))
	f.Add(fuzzSeedBits(LFSR32))
	// A circuit that compiles to a 5-cycle burst.
	f.Add(fuzzSeedBits(func() *Netlist {
		b := NewBuilder("burst5")
		a, c := b.Input("a", 32), b.Input("b", 32)
		b.Input("init", 1)
		b.Output("out", b.XorW(a, c))
		b.Output("done", []Net{b.Const(false)})
		n := b.MustBuild()
		withDoneChain(n, 5)
		return n
	}))
	// A valid image but for one padding byte: Decode rejects it.
	padded := fuzzSeedBits(Xor32)
	padded[headerBytes-1] = 1
	f.Add(padded)
	// A combinational loop (CLB 0 and CLB 1 invert each other), so the
	// verdict check starts from a configuration every engine rejects.
	loop := NewArrayConfig(ArraySpec{W: 2, H: 2})
	loop.CLBs[0] = CLBConfig{Table: 0x5555, InSel: [4]uint16{WireCLB0 + 1 + 1}, Flags: FlagLUTUsed}
	loop.CLBs[1] = CLBConfig{Table: 0x5555, InSel: [4]uint16{WireCLB0 + 0 + 1}, Flags: FlagLUTUsed}
	loopBits, err := EncodeStatic(loop)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(loopBits)
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Decode(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		bits, err := EncodeStatic(cfg)
		if err != nil {
			t.Fatalf("accepted configuration does not re-encode: %v", err)
		}
		if !bytes.Equal(bits, data) {
			t.Fatal("an accepted bitstream re-encodes to other bytes")
		}
		// A decoded configuration already passed Validate, so the linter
		// must analyse it without error, and compilation must either
		// succeed or reject it cleanly (combinational cycles).
		lint, err := LintConfig(cfg)
		if err != nil {
			t.Fatalf("validated config does not lint: %v", err)
		}
		prog, err := Compile(cfg)
		if err == nil {
			if verr := prog.Verify(cfg); verr != nil {
				t.Fatalf("compiled program fails Verify: %v", verr)
			}
			inst := prog.NewInstance()
			inst.Step(0xDEADBEEF, 0x12345678, true)
			inst.Step(0, 0, false)
			checkBurst(t, cfg, prog, data)
		}
		checkConfigVerdict(t, cfg, lint, err)
	})
}

// checkBurst requires a compiled burst to do what K PFU steps do — done
// low on cycles 1..K−1 and high on cycle K, the same result and the same
// registers after — from registers and operands drawn from seed.
func checkBurst(t *testing.T, cfg *ArrayConfig, prog *Compiled, seed []byte) {
	t.Helper()
	k := prog.BurstCycles()
	if k == 0 {
		return
	}
	h := fnv.New64a()
	h.Write(seed)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	regs := make([]uint8, cfg.Spec.CLBs())
	for i := range regs {
		regs[i] = uint8(rng.Intn(2))
	}
	a, b := rng.Uint32(), rng.Uint32()
	pfu, err := NewPFU(cfg)
	if err != nil {
		t.Fatalf("compiled configuration rejected by NewPFU: %v", err)
	}
	inst := prog.NewInstance()
	setPFURegs(pfu, regs)
	setInstRegs(inst, regs)
	var want uint32
	for c := 1; c <= k; c++ {
		out, done := pfu.Step(a, b, c == 1)
		if done != (c == k) {
			t.Fatalf("%d-cycle burst, but the PFU's done is %v on cycle %d", k, done, c)
		}
		want = out
	}
	if got, n, done := inst.Run(a, b, true, k); got != want || n != k || !done {
		t.Fatalf("burst (%#x, %d, %v), %d PFU steps %#x", got, n, done, k, want)
	}
	if !slices.Equal(instRegs(inst), pfuRegs(pfu)) {
		t.Fatalf("registers after the burst differ from %d PFU steps", k)
	}
}

// checkConfigVerdict asserts one verdict on a validated configuration:
// NewPFU, Compile (whose error is compileErr) and Timing all accept it
// or all reject it with the same error, rejecting exactly when LintConfig
// reports a combinational cycle and naming the first CLB of one of the
// reported cycles. On acceptance Timing's depth is LintConfig's.
func checkConfigVerdict(t *testing.T, cfg *ArrayConfig, lint *LintReport, compileErr error) {
	t.Helper()
	_, pfuErr := NewPFU(cfg)
	timing, timingErr := Timing(cfg)
	verdict := func(err error) string {
		if err == nil {
			return "accepted"
		}
		return err.Error()
	}
	v := verdict(pfuErr)
	if verdict(compileErr) != v || verdict(timingErr) != v {
		t.Fatalf("verdicts differ: NewPFU %q, Compile %q, Timing %q", v, verdict(compileErr), verdict(timingErr))
	}
	want := cycleRejections(lint, "fabric: combinational cycle through CLB %d; configuration rejected")
	switch {
	case pfuErr == nil && len(want) > 0:
		t.Fatalf("accepted a configuration LintConfig reports cyclic: %v", want)
	case pfuErr != nil && !slices.Contains(want, v):
		t.Fatalf("rejection %q names no cycle LintConfig reports %v", v, want)
	case pfuErr == nil && timing.MaxDepth != lint.Stats.Depth:
		t.Fatalf("Timing depth %d, LintConfig depth %d", timing.MaxDepth, lint.Stats.Depth)
	}
}
