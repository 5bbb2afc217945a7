package fabric

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// fuzzSeedBits encodes a real circuit as seed material for FuzzDecode.
func fuzzSeedBits(mk func() *Netlist, full bool) []byte {
	n := mk()
	Optimize(n)
	cfg, _, err := Place(n, ArraySpec{W: 15, H: 10})
	if err != nil {
		panic(err)
	}
	if full {
		state := make([]bool, cfg.Spec.CLBs())
		for i := range state {
			state[i] = i%3 == 0
		}
		bits, err := EncodeFull(cfg, state)
		if err != nil {
			panic(err)
		}
		return bits
	}
	bits, err := EncodeStatic(cfg)
	if err != nil {
		panic(err)
	}
	return bits
}

// FuzzDecode fuzzes the bitstream decoder — the one fabric surface that
// consumes attacker-shaped bytes (a real system loads configuration
// images from disk). Arbitrary input must never panic; any image Decode
// accepts must re-encode and re-decode to an identical image, must
// survive the linter, and must either Compile or be rejected with an
// error (never a crash) — §2's functional-security gate. The committed
// corpus under testdata/fuzz/FuzzDecode replays as plain subtests on
// every ordinary `go test` run.
func FuzzDecode(f *testing.F) {
	f.Add(fuzzSeedBits(Xor32, false))
	f.Add(fuzzSeedBits(LFSR32, true))
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
	}, false))
	state := []bool{true, false, true, true}
	stateOnly, err := EncodeState(ArraySpec{W: 2, H: 2}, state)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stateOnly)
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
		img, err := Decode(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		var bits []byte
		switch {
		case img.Config != nil && img.State != nil:
			bits, err = EncodeFull(img.Config, img.State)
		case img.Config != nil:
			bits, err = EncodeStatic(img.Config)
		case img.State != nil:
			bits, err = EncodeState(img.Spec, img.State)
		default:
			t.Fatal("decoded image has no sections")
		}
		if err != nil {
			t.Fatalf("accepted image does not re-encode: %v", err)
		}
		back, err := Decode(bits)
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		if !reflect.DeepEqual(img, back) {
			t.Fatal("decode/encode/decode changed the image")
		}
		// Sections are pure field data, so for inputs the encoder itself
		// produced the bytes round-trip exactly; fuzz-mutated inputs may
		// differ only in the unused header padding.
		if len(bits) == len(data) && !bytes.Equal(bits[20:], data[20:]) {
			t.Fatal("section bytes changed across a decode/encode round trip")
		}
		if img.Config == nil {
			return
		}
		// A decoded configuration already passed Validate, so the linter
		// must analyse it without error, and compilation must either
		// succeed or reject it cleanly (combinational cycles).
		lint, err := LintConfig(img.Config)
		if err != nil {
			t.Fatalf("validated config does not lint: %v", err)
		}
		prog, err := Compile(img.Config)
		if err == nil {
			inst := prog.NewInstance()
			inst.Step(0xDEADBEEF, 0x12345678, true)
			inst.Step(0, 0, false)
			checkBurst(t, img.Config, prog, data)
		}
		checkConfigVerdict(t, img.Config, lint, err)
	})
}

// checkBurst requires a compiled burst to do what K PFU steps do — done
// low on cycles 1..K−1 and high on cycle K, the same result and the same
// state frame after — from a state frame and operands drawn from seed.
func checkBurst(t *testing.T, cfg *ArrayConfig, prog *Compiled, seed []byte) {
	t.Helper()
	k := prog.BurstCycles()
	if k == 0 {
		return
	}
	h := fnv.New64a()
	h.Write(seed)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	frame := make([]uint8, cfg.Spec.CLBs())
	for i := range frame {
		frame[i] = uint8(rng.Intn(2))
	}
	a, b := rng.Uint32(), rng.Uint32()
	pfu, err := NewPFU(cfg)
	if err != nil {
		t.Fatalf("compiled configuration rejected by NewPFU: %v", err)
	}
	inst := prog.NewInstance()
	if err := pfu.LoadFrame(frame); err != nil {
		t.Fatal(err)
	}
	if err := inst.LoadFrame(frame); err != nil {
		t.Fatal(err)
	}
	var want uint32
	for c := 1; c <= k; c++ {
		out, done := pfu.Step(a, b, c == 1)
		if done != (c == k) {
			t.Fatalf("%d-cycle burst, but the PFU's done is %v on cycle %d", k, done, c)
		}
		want = out
	}
	if got := inst.Burst(a, b); got != want {
		t.Fatalf("burst result %#x, %d PFU steps %#x", got, k, want)
	}
	if !slices.Equal(inst.SaveFrame(), pfu.SaveFrame()) {
		t.Fatalf("state frame after the burst differs from %d PFU steps", k)
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
