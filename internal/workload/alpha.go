package workload

import (
	"fmt"
	"math/bits"

	"protean/internal/core"
	"protean/internal/fabric"
)

// The alpha blending application (§5.1): one custom instruction blending
// packed ARGB pixels, the source's alpha channel weighting the three colour
// lanes:
//
//	out_c = dst_c + (((src_c - dst_c) * alpha + 128) >> 8)
//
// The behavioural circuit model matches the gate-level fabric.AlphaBlend
// netlist bit-for-bit (proven in the fabric tests) including its 8-cycle
// serial-multiplier latency.

// AlphaImage returns the alpha-blend custom instruction image.
func AlphaImage() *core.Image {
	return core.NewBehaviouralImage(core.BehaviouralSpec{
		Name:       "alphablend",
		Spec:       fabric.DefaultPFUSpec,
		StateWords: 1,
		Step: func(st []uint32, a, b uint32, init bool) (uint32, bool) {
			if init {
				st[0] = 1
			} else {
				st[0]++
			}
			return fabric.RefAlphaBlend(a, b), st[0] >= fabric.AlphaBlendCycles
		},
	})
}

// AlphaGateImage returns the same instruction as a real placed-and-routed
// bitstream executing on the compiled fabric engine (used by the
// "alpha/gate" workload, tests and the fplstat tool). Each call builds a
// fresh Image — deliberately, so CIS instance sharing (which matches on
// image pointer identity) behaves exactly as it did before the
// compile-once rework — but every image for this circuit shares one
// compiled program through core's bitstream-hash program cache,
// so only the cheap place/encode step repeats.
func AlphaGateImage() (*core.Image, error) {
	return core.NewFabricImage("alphablend-gate", fabric.AlphaBlend(), fabric.DefaultPFUSpec)
}

// alphaExpected mirrors the ARM program exactly.
func alphaExpected(items int) uint32 {
	x := uint32(lcgSeed)
	var sum uint32
	for i := 0; i < items; i++ {
		x = lcgNext(x)
		src := x
		dst := bits.RotateLeft32(x, -13)
		sum = checksum(sum, fabric.RefAlphaBlend(src, dst))
	}
	return sum
}

// blendAlt is the optimised software alternative: the classic packed
// red/blue + green formulation. It computes the identical formula because
//
//	d + ((s-d)*a + 128)>>8  ==  (s*a + d*(256-a) + 128)>>8
//
// exactly (the d*256 term shifts out whole), and s*a + d*(256-a) is a
// convex combination so packed lanes cannot carry into each other.
// Clobbers r0-r3 and r8 only (r4-r6 saved), per the alternative-routine
// contract the applications rely on.
const blendAlt = `
alpha_swalt:
	push {r4-r6}
	mrc p1, 1, r0, c0, c0      ; src
	mrc p1, 1, r1, c1, c0      ; dst
	mov r2, r0, lsr #24        ; a
	rsb r3, r2, #256           ; 256-a
	mov r6, #0xFF
	orr r6, r6, #0xFF0000      ; rb mask
	and r4, r0, r6             ; src rb
	and r5, r1, r6             ; dst rb
	mul r8, r4, r2
	mul r4, r5, r3
	add r8, r8, r4
	mov r4, #0x80
	orr r4, r4, #0x800000      ; rb rounding
	add r8, r8, r4
	mov r8, r8, lsr #8
	and r8, r8, r6             ; rb result
	and r4, r0, #0xFF00        ; src g
	and r5, r1, #0xFF00        ; dst g
	mul r1, r4, r2
	mul r4, r5, r3
	add r1, r1, r4
	add r1, r1, #0x8000
	mov r1, r1, lsr #8
	and r1, r1, #0xFF00
	orr r8, r8, r1
	and r0, r0, #0xFF000000    ; alpha passes through
	orr r8, r8, r0
	mcr p1, 1, r8, c2, c0
	pop {r4-r6}
	mov pc, lr
`

// blendNaive is the unaccelerated baseline: the same arithmetic the way a
// non-optimising compiler emits it, with every intermediate spilled through
// a stack frame.
const blendNaive = `
blend_naive:
	push {r4-r7, lr}
	sub sp, sp, #16
	str r0, [sp]
	str r1, [sp, #4]
	ldr r2, [sp]
	mov r2, r2, lsr #24
	str r2, [sp, #8]
	ldr r0, [sp]
	and r8, r0, #0xFF000000
	mov r7, #0
naive_lane:
	ldr r0, [sp]
	mov r3, r0, lsr r7
	and r3, r3, #0xFF
	ldr r1, [sp, #4]
	mov r4, r1, lsr r7
	and r4, r4, #0xFF
	sub r3, r3, r4
	ldr r2, [sp, #8]
	mul r5, r3, r2
	add r5, r5, #128
	mov r5, r5, asr #8
	add r5, r4, r5
	and r5, r5, #0xFF
	orr r8, r8, r5, lsl r7
	str r8, [sp, #12]
	ldr r8, [sp, #12]
	add r7, r7, #8
	cmp r7, #24
	bne naive_lane
	add sp, sp, #16
	pop {r4-r7, pc}
`

// BuildAlpha constructs the alpha blending app processing `items` pixels.
func BuildAlpha(items int, mode Mode) (*App, error) {
	if items <= 0 {
		return nil, fmt.Errorf("workload: alpha needs items > 0")
	}
	var body string
	var images []*core.Image
	switch mode {
	case ModeHW, ModeHWOnly:
		soft := "0"
		tail := ""
		if mode == ModeHW {
			soft = "alpha_swalt"
			tail = blendAlt
		}
		images = []*core.Image{AlphaImage()}
		body = fmt.Sprintf(`
	adr r0, desc
	swi 3
	ldr r6, =%d
	ldr r7, =%#x
	ldr r11, =%d
	ldr r12, =%d
	mov r4, #0
	mov r5, #0
loop:
	mul r0, r7, r11
	add r7, r0, r12            ; src = lcg step
	mov r1, r7, ror #13        ; dst
	mcr p1, 0, r7, c0, c0
	mcr p1, 0, r1, c1, c0
	cdp p1, 1, c2, c0, c1      ; blend
	mrc p1, 0, r8, c2, c0
	add r5, r8, r5, ror #1     ; checksum
	add r4, r4, #1
	cmp r4, r6
	bne loop
	mov r0, r5
	swi 0
%s
desc:
	.word 1, 0, %s
`, items, lcgSeed, lcgMul, lcgAdd, tail, soft)
	case ModeBaseline:
		body = fmt.Sprintf(`
	ldr r6, =%d
	ldr r7, =%#x
	ldr r11, =%d
	ldr r12, =%d
	mov r4, #0
	mov r5, #0
loop:
	mul r0, r7, r11
	add r7, r0, r12
	mov r1, r7, ror #13
	mov r0, r7
	bl blend_naive
	add r5, r8, r5, ror #1
	add r4, r4, #1
	cmp r4, r6
	bne loop
	mov r0, r5
	swi 0
%s
`, items, lcgSeed, lcgMul, lcgAdd, blendNaive)
	default:
		return nil, fmt.Errorf("workload: bad mode %v", mode)
	}
	return &App{
		Name:     fmt.Sprintf("alpha-%s", mode),
		Source:   body,
		Images:   images,
		CIs:      1,
		Expected: alphaExpected(items),
	}, nil
}
