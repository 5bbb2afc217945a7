//go:build !race

package core

import (
	"math"
	"testing"

	"protean/internal/arm"
	"protean/internal/fabric"
)

// TestCDPRunAllocs pins the hardware dispatch path at zero allocations:
// a TLB1-hit CDP hands out the RFU's own execution, and running it —
// whole as a burst, or one cycle at a time — allocates nothing.
func TestCDPRunAllocs(t *testing.T) {
	img, err := NewFabricImage("seqmul16", fabric.SeqMul16(), fabric.DefaultPFUSpec)
	if err != nil {
		t.Fatal(err)
	}
	rfu := New(DefaultConfig)
	if _, err := rfu.LoadImage(0, img); err != nil {
		t.Fatal(err)
	}
	rfu.TLB1.Insert(IDTuple{PID: 0, CID: 5}, 0)
	rfu.Regs[0], rfu.Regs[1] = 123, 456
	issue := func() arm.CopExec {
		out := rfu.CDP(5, 2, 0, 1, 0, true)
		if out.Action != arm.CDPExec {
			t.Fatalf("CDP action %v, want CDPExec", out.Action)
		}
		return out.Exec
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, done := issue().Run(math.MaxUint32); !done {
			t.Fatal("burst did not complete")
		}
		for e := issue(); ; {
			if _, done := e.Run(1); done {
				break
			}
		}
	})
	if allocs != 0 {
		t.Errorf("CDP + Run allocated %v times per issue pair", allocs)
	}
	if rfu.Regs[2] != 123*456 {
		t.Errorf("product = %d", rfu.Regs[2])
	}
}

// TestSwapRestoreAllocs pins the swap path at zero allocations: SwapOut
// writes into a slot the caller reuses once Restore has consumed it, and
// the evicted instance is the saved state, so neither call materialises
// frame bytes.
func TestSwapRestoreAllocs(t *testing.T) {
	img, err := NewFabricImage("seqmul16", fabric.SeqMul16(), fabric.DefaultPFUSpec)
	if err != nil {
		t.Fatal(err)
	}
	rfu := New(DefaultConfig)
	if _, err := rfu.LoadImage(0, img); err != nil {
		t.Fatal(err)
	}
	exec := &pfuExec{r: rfu, pfu: 0, a: 123, b: 456, dst: 2}
	if _, done := exec.Run(3); done {
		t.Fatal("the instruction was not cut")
	}
	from := 0
	var sc SwappedCircuit
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := rfu.SwapOut(from, &sc); err != nil {
			t.Fatal(err)
		}
		from = 1 - from
		if _, err := rfu.Restore(from, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SwapOut + Restore into a reused slot allocated %v times", allocs)
	}
	exec.pfu = from
	if _, done := exec.Run(100); !done || rfu.Regs[2] != 123*456 {
		t.Errorf("the restored instruction finished %v with %d, want %d", done, rfu.Regs[2], 123*456)
	}
}
