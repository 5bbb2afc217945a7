package asm

import (
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	"protean/internal/arm"
	"protean/internal/bus"
)

// run assembles src at 0x8000, executes it on the ARM model until it
// reaches the `done` label (or hits the instruction budget), and returns
// the CPU for inspection. Programs must define a `done:` label.
func run(t *testing.T, src string) *arm.CPU {
	t.Helper()
	prog, err := Assemble(src, 0x8000)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	stop, ok := prog.Symbols["done"]
	if !ok {
		t.Fatal("test program needs a done: label")
	}
	b := bus.New()
	b.MustMap(0, bus.NewRAM(0x40000))
	c := arm.New(b)
	if err := b.LoadBytes(prog.Origin, prog.Code); err != nil {
		t.Fatal(err)
	}
	c.SetCPSR(uint32(arm.ModeSys) | arm.FlagI | arm.FlagF)
	c.R[arm.PC] = prog.Origin
	c.R[arm.SP] = 0x30000
	if reason := c.Run(stop, 2_000_000); reason != arm.StopPC {
		t.Fatalf("program did not reach done: %v (%s)", reason, c)
	}
	return c
}

func words(t *testing.T, src string, origin uint32) []uint32 {
	t.Helper()
	prog, err := Assemble(src, origin)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if len(prog.Code)%4 != 0 {
		t.Fatalf("code not word aligned: %d bytes", len(prog.Code))
	}
	out := make([]uint32, len(prog.Code)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(prog.Code[i*4:])
	}
	return out
}

func TestEncodeBasics(t *testing.T) {
	cases := []struct {
		src  string
		want uint32
	}{
		{"mov r0, #1", 0xE3A00001},
		{"movs r1, r2", 0xE1B01002},
		{"add r3, r4, r5", 0xE0843005},
		{"adds r3, r4, #0xFF0000", 0xE29438FF},
		{"sub r0, r1, r2, lsl #3", 0xE0410182},
		{"rsb r9, r10, r11, asr r12", 0xE06A9C5B},
		{"cmp r1, #0", 0xE3510000},
		{"tst r2, r3", 0xE1120003},
		{"mvn r0, #0", 0xE3E00000},
		{"orreq r5, r5, #4", 0x03855004},
		{"bicne r7, r7, #1", 0x13C77001},
		{"mul r0, r1, r2", 0xE0000291},
		{"mla r0, r1, r2, r3", 0xE0203291},
		{"umull r0, r1, r2, r3", 0xE0810392},
		{"smlal r0, r1, r2, r3", 0xE0E10392},
		{"ldr r0, [r1]", 0xE5910000},
		{"ldr r0, [r1, #4]", 0xE5910004},
		{"ldr r0, [r1, #-4]", 0xE5110004},
		{"ldrb r0, [r1, r2]", 0xE7D10002},
		{"ldr r0, [r1, r2, lsl #2]", 0xE7910102},
		{"str r0, [r1, #8]!", 0xE5A10008},
		{"str r0, [r1], #8", 0xE4810008},
		{"ldrh r0, [r1, #6]", 0xE1D100B6},
		{"strh r0, [r1]", 0xE1C100B0},
		{"ldrsb r0, [r1]", 0xE1D100D0},
		{"ldrsh r0, [r1, r2]", 0xE19100F2},
		{"ldmia r0!, {r1, r2}", 0xE8B00006},
		{"stmdb sp!, {r0-r3, lr}", 0xE92D400F},
		{"push {r4, lr}", 0xE92D4010},
		{"pop {r4, pc}", 0xE8BD8010},
		{"swi 0x123456", 0xEF123456},
		{"swi #7", 0xEF000007},
		{"bx lr", 0xE12FFF1E},
		{"mrs r0, cpsr", 0xE10F0000},
		{"msr cpsr_c, r0", 0xE121F000},
		{"swp r0, r1, [r2]", 0xE1020091},
		{"swpb r0, r1, [r2]", 0xE1420091},
		{"mov r0, r0", 0xE1A00000},
		{"nop", 0xE1A00000},
		{"cdp p1, 2, c3, c4, c5", 0xEE243105},
		{"cdp p1, 2, c3, c4, c5, 6", 0xEE2431C5},
		{"mcr p1, 0, r2, c3, c4", 0xEE032114},
		{"mrc p1, 3, r2, c3, c4, 5", 0xEE7321B4},
	}
	for _, tc := range cases {
		got := words(t, tc.src, 0x8000)
		if len(got) != 1 {
			t.Fatalf("%q assembled to %d words", tc.src, len(got))
		}
		if got[0] != tc.want {
			t.Errorf("%q = %#08x, want %#08x", tc.src, got[0], tc.want)
		}
	}
}

func TestBranchEncoding(t *testing.T) {
	src := `
start:
	b fwd
	nop
fwd:
	bl start
	bne start
`
	got := words(t, src, 0x8000)
	if got[0] != 0xEA000000 {
		t.Errorf("b fwd = %#08x", got[0]) // offset 0: target = pc+8 = 0x8008 = fwd
	}
	if got[2] != 0xEBFFFFFC {
		t.Errorf("bl start = %#08x", got[2])
	}
	if got[3] != 0x1AFFFFFB {
		t.Errorf("bne start = %#08x", got[3])
	}
}

func TestDirectives(t *testing.T) {
	src := `
.equ MAGIC, 0x1234
val: .word MAGIC, MAGIC+1, val
half: .half 0xBEEF
bytes: .byte 1, 2, 'A', '\n'
msg: .asciz "hi"
.align 2
after: .word .
`
	prog, err := Assemble(src, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Symbols["MAGIC"] != 0x1234 {
		t.Errorf("MAGIC = %#x", prog.Symbols["MAGIC"])
	}
	if prog.Symbols["val"] != 0x1000 {
		t.Errorf("val = %#x", prog.Symbols["val"])
	}
	w0 := binary.LittleEndian.Uint32(prog.Code[0:])
	w1 := binary.LittleEndian.Uint32(prog.Code[4:])
	w2 := binary.LittleEndian.Uint32(prog.Code[8:])
	if w0 != 0x1234 || w1 != 0x1235 || w2 != 0x1000 {
		t.Errorf("words = %#x %#x %#x", w0, w1, w2)
	}
	if binary.LittleEndian.Uint16(prog.Code[12:]) != 0xBEEF {
		t.Error("half wrong")
	}
	if prog.Code[14] != 1 || prog.Code[15] != 2 || prog.Code[16] != 'A' || prog.Code[17] != '\n' {
		t.Error("bytes wrong")
	}
	msg := prog.Symbols["msg"]
	off := msg - 0x1000
	if string(prog.Code[off:off+3]) != "hi\x00" {
		t.Errorf("asciz wrong: %q", prog.Code[off:off+3])
	}
	after := prog.Symbols["after"]
	if after%4 != 0 {
		t.Errorf("after not aligned: %#x", after)
	}
	wAfter := binary.LittleEndian.Uint32(prog.Code[after-0x1000:])
	if wAfter != after {
		t.Errorf(".word . = %#x at %#x", wAfter, after)
	}
}

func TestLiteralPool(t *testing.T) {
	src := `
	ldr r0, =0xDEADBEEF
	ldr r1, =0xDEADBEEF
	ldr r2, =sym
	b done
sym:
	nop
done:
	nop
`
	prog, err := Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	// Identical literals share a slot.
	w0 := binary.LittleEndian.Uint32(prog.Code[0:])
	w1 := binary.LittleEndian.Uint32(prog.Code[4:])
	off0 := w0 & 0xFFF
	off1 := w1 & 0xFFF
	if off0-off1 != 4 {
		// Both pc+8-relative to consecutive instructions, same target.
		t.Errorf("shared literal offsets: %d, %d", off0, off1)
	}
	c := run(t, src)
	if c.R[0] != 0xDEADBEEF || c.R[1] != 0xDEADBEEF {
		t.Errorf("literals: r0=%#x r1=%#x", c.R[0], c.R[1])
	}
	if c.R[2] != prog.Symbols["sym"] {
		t.Errorf("symbol literal: r2=%#x want %#x", c.R[2], prog.Symbols["sym"])
	}
}

func TestLtorg(t *testing.T) {
	src := `
	ldr r0, =0x11223344
	b skip
	.ltorg
skip:
	ldr r1, =0x55667788
	b done
done:
	nop
`
	c := run(t, src)
	if c.R[0] != 0x11223344 || c.R[1] != 0x55667788 {
		t.Errorf("r0=%#x r1=%#x", c.R[0], c.R[1])
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"mov r0, #0x101",      // unencodable immediate
		"bogus r0, r1",        // unknown mnemonic
		"ldr r0",              // missing operand
		"ldrh r0, [r1, #512]", // halfword offset too big
		".word",               // empty directive
		"x: x: nop",           // duplicate label... same line twice
		"b faraway",           // undefined symbol
		"ldm r0, {}",          // empty list
		"str r0, [r1], #4!",   // post-index plus writeback
		".equ 9bad, 1",        // bad symbol
		".unknown 3",          // unknown directive
	}
	for _, src := range cases {
		if _, err := Assemble(src, 0x8000); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestDuplicateLabel(t *testing.T) {
	if _, err := Assemble("a: nop\na: nop", 0); err == nil {
		t.Fatal("duplicate label not caught")
	}
}

func TestOrgDirective(t *testing.T) {
	prog, err := Assemble(".org 0x4000\nentry: nop", 0)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Origin != 0x4000 || prog.Symbols["entry"] != 0x4000 {
		t.Errorf("origin=%#x entry=%#x", prog.Origin, prog.Symbols["entry"])
	}
	if _, err := Assemble("nop\n.org 0x4000", 0); err == nil {
		t.Fatal(".org after code not rejected")
	}
}

// --- execution tests: assembled programs on the CPU model ---

func TestExecArithmetic(t *testing.T) {
	c := run(t, `
	mov r0, #10
	mov r1, #3
	add r2, r0, r1        ; 13
	sub r3, r0, r1        ; 7
	mul r4, r0, r1        ; 30
	mla r5, r0, r1, r2    ; 43
	and r6, r0, #6        ; 2
	orr r7, r0, #5        ; 15
	eor r8, r0, r1        ; 9
	bic r9, r0, #2        ; 8
	b done
done:
	nop
`)
	want := map[int]uint32{2: 13, 3: 7, 4: 30, 5: 43, 6: 2, 7: 15, 8: 9, 9: 8}
	for r, v := range want {
		if c.R[r] != v {
			t.Errorf("r%d = %d, want %d", r, c.R[r], v)
		}
	}
}

func TestExecLoop(t *testing.T) {
	// Sum 1..10 = 55.
	c := run(t, `
	mov r0, #0
	mov r1, #10
loop:
	add r0, r0, r1
	subs r1, r1, #1
	bne loop
	b done
done:
	nop
`)
	if c.R[0] != 55 {
		t.Errorf("sum = %d", c.R[0])
	}
}

func TestExecMemoryCopy(t *testing.T) {
	c := run(t, `
	adr r0, src
	adr r1, dst
	mov r2, #3
copy:
	ldr r3, [r0], #4
	str r3, [r1], #4
	subs r2, r2, #1
	bne copy
	ldr r4, dst
	ldr r5, dst+8
	b done
src:
	.word 0x11, 0x22, 0x33
dst:
	.space 12
done:
	nop
`)
	if c.R[4] != 0x11 || c.R[5] != 0x33 {
		t.Errorf("copy: r4=%#x r5=%#x", c.R[4], c.R[5])
	}
}

func TestExecFunctionCall(t *testing.T) {
	c := run(t, `
	mov r0, #21
	bl double
	b done
double:
	push {r4, lr}
	mov r4, r0
	add r0, r4, r4
	pop {r4, pc}
done:
	nop
`)
	if c.R[0] != 42 {
		t.Errorf("double(21) = %d", c.R[0])
	}
}

func TestExecByteString(t *testing.T) {
	// strlen over an asciz string.
	c := run(t, `
	adr r0, msg
	mov r1, #0
len:
	ldrb r2, [r0], #1
	cmp r2, #0
	addne r1, r1, #1
	bne len
	b done
msg:
	.asciz "protean"
.align 2
done:
	nop
`)
	if c.R[1] != 7 {
		t.Errorf("strlen = %d", c.R[1])
	}
}

func TestExecShiftsAndConditions(t *testing.T) {
	c := run(t, `
	mov r0, #1
	mov r1, r0, lsl #8     ; 256
	movs r2, r1, lsr #9    ; 0, Z set, C = bit8 of 256 = ... bit8? 256>>9 carry = bit 8 = 1
	moveq r3, #1           ; executed
	movne r4, #1           ; skipped
	mov r5, #0
	sub r5, r5, #1         ; -1
	mov r6, r5, asr #16    ; still -1
	b done
done:
	nop
`)
	if c.R[1] != 256 || c.R[2] != 0 {
		t.Errorf("shift results: r1=%d r2=%d", c.R[1], c.R[2])
	}
	if c.R[3] != 1 || c.R[4] != 0 {
		t.Errorf("conditional: r3=%d r4=%d", c.R[3], c.R[4])
	}
	if c.R[6] != 0xFFFFFFFF {
		t.Errorf("asr: r6=%#x", c.R[6])
	}
}

func TestExecLongMultiply(t *testing.T) {
	c := run(t, `
	ldr r0, =0x12345678
	ldr r1, =0x9ABCDEF0
	umull r2, r3, r0, r1
	smull r4, r5, r0, r1
	b done
done:
	nop
`)
	wantU := uint64(0x12345678) * uint64(0x9ABCDEF0)
	if c.R[2] != uint32(wantU) || c.R[3] != uint32(wantU>>32) {
		t.Errorf("umull = %#x:%#x", c.R[3], c.R[2])
	}
	opB := uint32(0x9ABCDEF0)
	wantS := int64(int32(0x12345678)) * int64(int32(opB))
	if c.R[4] != uint32(uint64(wantS)) || c.R[5] != uint32(uint64(wantS)>>32) {
		t.Errorf("smull = %#x:%#x", c.R[5], c.R[4])
	}
}

func TestExecHalfwordData(t *testing.T) {
	c := run(t, `
	adr r0, data
	ldrh r1, [r0]
	ldrsh r2, [r0, #2]
	ldrsb r3, [r0, #1]
	b done
data:
	.half 0x8001, 0xFFFE
.align 2
done:
	nop
`)
	if c.R[1] != 0x8001 {
		t.Errorf("ldrh = %#x", c.R[1])
	}
	if c.R[2] != 0xFFFFFFFE {
		t.Errorf("ldrsh = %#x", c.R[2])
	}
	if c.R[3] != 0xFFFFFF80 {
		t.Errorf("ldrsb = %#x", c.R[3])
	}
}

func TestExecStackedCalls(t *testing.T) {
	// Recursive factorial through the stack: 5! = 120.
	c := run(t, `
	mov r0, #5
	bl fact
	b done
fact:
	cmp r0, #1
	movls r0, #1
	bxls lr
	push {r4, lr}
	mov r4, r0
	sub r0, r0, #1
	bl fact
	mul r0, r4, r0
	pop {r4, pc}
done:
	nop
`)
	if c.R[0] != 120 {
		t.Errorf("5! = %d", c.R[0])
	}
}

func TestExprOperators(t *testing.T) {
	prog, err := Assemble(`
.equ A, 6
.equ B, A*7
.equ C, (B+2)/4 - 1
.equ D, 1<<8 | 0xF
.equ E, ~0 >> 28
.equ F, 'Z' - 'A'
v: .word B, C, D, E, F, A % 4
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{42, 10, 0x10F, 0xF, 25, 2}
	for i, w := range want {
		got := binary.LittleEndian.Uint32(prog.Code[i*4:])
		if got != w {
			t.Errorf("word %d = %d, want %d", i, got, w)
		}
	}
}

func TestCommentStyles(t *testing.T) {
	src := strings.Join([]string{
		"mov r0, #1 ; semicolon",
		"mov r1, #2 @ at-sign",
		"mov r2, #3 // slashes",
		"b done",
		"done: nop",
	}, "\n")
	c := run(t, src)
	if c.R[0] != 1 || c.R[1] != 2 || c.R[2] != 3 {
		t.Error("comments broke parsing")
	}
}

func TestSplitOperands(t *testing.T) {
	got := splitOperands("r0, [r1, #4], {r2-r3, lr}, 'a', \"x,y\"")
	want := []string{"r0", "[r1, #4]", "{r2-r3, lr}", "'a'", "\"x,y\""}
	if len(got) != len(want) {
		t.Fatalf("got %d parts: %q", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("part %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRegListParsing(t *testing.T) {
	list, caret, err := parseRegList("{r0-r3, r8, lr}^")
	if err != nil {
		t.Fatal(err)
	}
	if list != 0xF|1<<8|1<<14 {
		t.Errorf("list = %#x", list)
	}
	if !caret {
		t.Error("caret lost")
	}
	if _, _, err := parseRegList("{r3-r1}"); err == nil {
		t.Error("descending range accepted")
	}
}

func TestMacroBasic(t *testing.T) {
	c := run(t, `
.macro inc2 reg
	add \reg, \reg, #2
.endm
	mov r0, #5
	inc2 r0
	inc2 r0
	b done
done:
	nop
`)
	if c.R[0] != 9 {
		t.Fatalf("r0 = %d, want 9", c.R[0])
	}
}

func TestMacroMultipleParams(t *testing.T) {
	c := run(t, `
.macro axpy dst, x, y, k
	mov \dst, \x, lsl \k
	add \dst, \dst, \y
.endm
	mov r1, #3
	mov r2, #10
	mov r3, #2
	axpy r0, r1, r2, r3
	b done
done:
	nop
`)
	if c.R[0] != 3<<2+10 {
		t.Fatalf("r0 = %d", c.R[0])
	}
}

func TestMacroLocalLabels(t *testing.T) {
	// \@ expands to a per-invocation unique suffix, so a macro with an
	// internal label can be used twice.
	c := run(t, `
.macro clampz reg
	cmp \reg, #0
	bge skip\@
	mov \reg, #0
skip\@:
.endm
	mov r0, #0
	sub r0, r0, #7
	clampz r0
	mov r1, #9
	clampz r1
	b done
done:
	nop
`)
	if c.R[0] != 0 || c.R[1] != 9 {
		t.Fatalf("r0=%d r1=%d", c.R[0], c.R[1])
	}
}

func TestMacroCallsMacro(t *testing.T) {
	c := run(t, `
.macro double reg
	add \reg, \reg, \reg
.endm
.macro quad reg
	double \reg
	double \reg
.endm
	mov r0, #3
	quad r0
	b done
done:
	nop
`)
	if c.R[0] != 12 {
		t.Fatalf("r0 = %d, want 12", c.R[0])
	}
}

func TestMacroWithLabelPrefix(t *testing.T) {
	c := run(t, `
.macro setone reg
	mov \reg, #1
.endm
entry: setone r4
	b done
done:
	nop
`)
	if c.R[4] != 1 {
		t.Fatalf("r4 = %d", c.R[4])
	}
}

func TestMacroErrors(t *testing.T) {
	cases := []string{
		".macro\nnop\n.endm",               // no name
		".macro a\n.macro b\n.endm\n.endm", // nested
		".endm",                            // stray endm
		".macro a\nnop",                    // unclosed
		".macro twoargs x, y\nnop\n.endm\ntwoargs r0", // arity
	}
	for _, src := range cases {
		if _, err := Assemble(src, 0x8000); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
	// Recursive macros are caught by the depth bound.
	if _, err := Assemble(".macro r\nr\n.endm\nr", 0x8000); err == nil {
		t.Error("recursive macro not caught")
	}
}

// TestProgramImageShared: goroutines that load one program into their
// own RAMs get one image, and a store each makes to the program's page
// stays in its own RAM.
func TestProgramImageShared(t *testing.T) {
	prog, err := Assemble(".word 0x11111111\n.word 0x22222222", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	var wg sync.WaitGroup
	images := make([]*bus.Image, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			images[g] = prog.Image()
			r := bus.NewRAM(1 << 20)
			if !r.LoadImage(images[g]) {
				t.Error("LoadImage rejected")
				return
			}
			r.Write32(0x8000, uint32(g))
			if v, _ := r.Read32(0x8000); v != uint32(g) {
				t.Errorf("goroutine %d read back %#x", g, v)
			}
			if v, _ := r.Read32(0x8004); v != 0x22222222 {
				t.Errorf("goroutine %d: program word = %#x", g, v)
			}
		}()
	}
	wg.Wait()
	for _, img := range images[1:] {
		if img != images[0] {
			t.Fatal("Image built more than once")
		}
	}
	r := bus.NewRAM(1 << 20)
	r.LoadImage(prog.Image())
	if v, _ := r.Read32(0x8000); v != 0x11111111 {
		t.Fatalf("the image holds %#x after stores into loaded copies", v)
	}
}
