package core

import (
	"testing"

	"protean/internal/fabric"
)

// BenchmarkSwapRestore measures the swap path the CIS takes under
// contention: SwapOut of a gate-level alpha-blend PFU cut mid-instruction
// and Restore of it into another PFU. The evicted instance is the saved
// state, so a round trip into a reused slot moves no frame bytes on the
// host.
func BenchmarkSwapRestore(b *testing.B) {
	img, err := NewFabricImage("alphablend", fabric.AlphaBlend(), fabric.DefaultPFUSpec)
	if err != nil {
		b.Fatal(err)
	}
	rfu := New(DefaultConfig)
	if _, err := rfu.LoadImage(0, img); err != nil {
		b.Fatal(err)
	}
	exec := &pfuExec{r: rfu, pfu: 0, a: 0x80ff4020, b: 0x10203040, dst: 2}
	if _, done := exec.Run(fabric.AlphaBlendCycles / 2); done {
		b.Fatal("the instruction was not cut")
	}
	var sc SwappedCircuit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rfu.SwapOut(i%2, &sc); err != nil {
			b.Fatal(err)
		}
		if _, err := rfu.Restore((i+1)%2, &sc); err != nil {
			b.Fatal(err)
		}
	}
}
