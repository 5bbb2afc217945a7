package fabric

import (
	"math/rand"
	"testing"
)

// naiveTranspose64 is the obvious O(64²) reference for transpose64.
func naiveTranspose64(a *[Lanes]uint64) [Lanes]uint64 {
	var out [Lanes]uint64
	for i := 0; i < Lanes; i++ {
		for j := 0; j < Lanes; j++ {
			out[j] |= a[i] >> uint(j) & 1 << uint(i)
		}
	}
	return out
}

func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		var m [Lanes]uint64
		for i := range m {
			m[i] = rng.Uint64()
		}
		want := naiveTranspose64(&m)
		got := m
		transpose64(&got)
		if got != want {
			t.Fatalf("trial %d: transpose64 disagrees with reference", trial)
		}
		transpose64(&got)
		if got != m {
			t.Fatalf("trial %d: transpose64 is not an involution", trial)
		}
	}
}

// TestLanesMatchScalarStockCircuits drives all 64 lanes with distinct
// operands in lockstep against 64 independent scalar instances, over
// every stock circuit: every lane's output and done bit must match its
// scalar twin on every cycle.
func TestLanesMatchScalarStockCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, mk := range []func() *Netlist{
		Passthrough32, Xor32, Adder32, Popcount32, CRC32Step, SatAdd16,
		SeqMul16, AlphaBlend, BarrelShift32, LFSR32,
	} {
		n := mk()
		name := n.Name
		cfg := placeT(t, n)
		prog := compileT(t, cfg)
		li := prog.NewLaneInstance()
		scalars := make([]*Instance, Lanes)
		for l := range scalars {
			scalars[l] = prog.NewInstance()
		}
		for trial := 0; trial < 6; trial++ {
			var a, b, out [Lanes]uint32
			for l := 0; l < Lanes; l++ {
				a[l], b[l] = rng.Uint32(), rng.Uint32()
				scalars[l].Reset()
			}
			li.Reset()
			for s := 0; s < 24; s++ {
				var initMask uint64
				if s == 0 {
					initMask = ^uint64(0)
				}
				done := li.Step(&a, &b, initMask, &out)
				for l := 0; l < Lanes; l++ {
					wantOut, wantDone := scalars[l].Step(a[l], b[l], s == 0)
					if out[l] != wantOut || done>>uint(l)&1 != 0 != wantDone {
						t.Fatalf("%s trial %d step %d lane %d: lanes (%#x,%v) vs scalar (%#x,%v)",
							name, trial, s, l, out[l], done>>uint(l)&1 != 0, wantOut, wantDone)
					}
				}
			}
		}
	}
}

// TestLanesStepUniformMatchesScalar locks the broadcast fast path to the
// scalar engine over the full execution protocol: same outputs, same
// latency, cycle for cycle.
func TestLanesStepUniformMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, mk := range []func() *Netlist{Adder32, SeqMul16, AlphaBlend, CRC32Step} {
		n := mk()
		name := n.Name
		prog := compileT(t, placeT(t, n))
		li := prog.NewLaneInstance()
		inst := prog.NewInstance()
		for trial := 0; trial < 20; trial++ {
			a, b := rng.Uint32(), rng.Uint32()
			li.Reset()
			inst.Reset()
			init := true
			for cyc := 0; cyc < 64; cyc++ {
				wantOut, wantDone := inst.Step(a, b, init)
				gotOut, gotDone := li.StepUniform(a, b, init)
				if gotOut != wantOut || gotDone != wantDone {
					t.Fatalf("%s(%#x,%#x) cycle %d: uniform (%#x,%v) vs scalar (%#x,%v)",
						name, a, b, cyc, gotOut, gotDone, wantOut, wantDone)
				}
				init = false
				if wantDone {
					break
				}
			}
		}
	}
}

// TestLaneFrameMigration swaps a single lane's state out of a running
// 64-lane instance into a fresh scalar Instance mid-execution (and the
// scalar frame back into the lane), then continues both: the §4.1 state
// frame machinery applied per lane.
func TestLaneFrameMigration(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	prog := compileT(t, placeT(t, SeqMul16()))
	li := prog.NewLaneInstance()
	var a, b, out [Lanes]uint32
	for l := 0; l < Lanes; l++ {
		a[l], b[l] = rng.Uint32()&0xFFFF, rng.Uint32()&0xFFFF
	}
	li.Reset()
	shadowLane := 1 + rng.Intn(Lanes-1)
	shadow := prog.NewInstance()
	shadow.Reset()
	for s := 0; s < 20; s++ {
		var initMask uint64
		if s == 0 {
			initMask = ^uint64(0)
		}
		done := li.Step(&a, &b, initMask, &out)
		wantOut, wantDone := shadow.Step(a[shadowLane], b[shadowLane], s == 0)
		if out[shadowLane] != wantOut || done>>uint(shadowLane)&1 != 0 != wantDone {
			t.Fatalf("step %d lane %d: lanes (%#x) vs shadow (%#x)", s, shadowLane, out[shadowLane], wantOut)
		}
		if s == 9 {
			// Swap out: the lane's frame and the shadow's must agree,
			// migrate the lane frame into a fresh scalar, and reload the
			// scalar frame back into the lane.
			laneFrame := li.SaveLaneFrame(shadowLane)
			scalarFrame := shadow.SaveFrame()
			for i := range laneFrame {
				if laneFrame[i] != scalarFrame[i] {
					t.Fatalf("frame byte %d: lane %d vs scalar %d", i, laneFrame[i], scalarFrame[i])
				}
			}
			fresh := prog.NewInstance()
			if err := fresh.LoadFrame(laneFrame); err != nil {
				t.Fatal(err)
			}
			shadow = fresh
			if err := li.LoadLaneFrame(shadowLane, scalarFrame); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLaneResetLane resets a single mid-run lane and checks it tracks a
// freshly reset scalar instance while a neighbouring lane keeps its
// accumulated state.
func TestLaneResetLane(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	prog := compileT(t, placeT(t, LFSR32()))
	li := prog.NewLaneInstance()
	var a, b, out [Lanes]uint32
	for l := 0; l < Lanes; l++ {
		a[l], b[l] = rng.Uint32(), rng.Uint32()
	}
	li.Reset()
	keeper := prog.NewInstance() // tracks lane 7 throughout
	fresh := prog.NewInstance()  // tracks lane 3 after its reset
	keeper.Reset()
	for s := 0; s < 16; s++ {
		if s == 8 {
			li.ResetLane(3)
			fresh.Reset()
		}
		var initMask uint64
		if s == 0 || s == 8 {
			// Restart lane 3's instruction after the reset; the init input
			// is shared, so every lane sees it (their scalar twins too).
			initMask = ^uint64(0)
		}
		li.Step(&a, &b, initMask, &out)
		k, _ := keeper.Step(a[7], b[7], s == 0 || s == 8)
		if out[7] != k {
			t.Fatalf("step %d: kept lane 7 %#x vs scalar %#x", s, out[7], k)
		}
		if s >= 8 {
			f, _ := fresh.Step(a[3], b[3], s == 8)
			if out[3] != f {
				t.Fatalf("step %d: reset lane 3 %#x vs fresh scalar %#x", s, out[3], f)
			}
		}
	}
}

// TestLaneFrameValidation covers the error paths of the lane frame API.
func TestLaneFrameValidation(t *testing.T) {
	prog := compileT(t, placeT(t, Xor32()))
	li := prog.NewLaneInstance()
	if err := li.LoadLaneFrame(0, make([]uint8, 3)); err == nil {
		t.Fatal("short lane frame must be rejected")
	}
	if err := li.LoadFrame(make([]uint8, prog.Spec().CLBs()+1)); err == nil {
		t.Fatal("long broadcast frame must be rejected")
	}
	if err := li.LoadFrame(make([]uint8, prog.Spec().CLBs())); err != nil {
		t.Fatal(err)
	}
}

// TestPackUnpackFrame round-trips the modeled frame-group packing.
func TestPackUnpackFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{0, 1, 7, 8, 9, 150} {
		frame := make([]uint8, n)
		for i := range frame {
			frame[i] = uint8(rng.Intn(2))
		}
		back, err := UnpackFrame(PackFrame(frame), n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range frame {
			if back[i] != frame[i] {
				t.Fatalf("n=%d: byte %d changed across pack/unpack", n, i)
			}
		}
	}
	if _, err := UnpackFrame([]byte{0}, 9); err == nil {
		t.Fatal("short frame group must be rejected")
	}
}
