// Package asm is a two-pass assembler for the ARMv4 subset executed by the
// ProteanARM model, plus the coprocessor instructions (CDP/MCR/MRC) through
// which applications invoke Proteus custom instructions.
//
// The test applications of the paper (alpha blending, twofish encryption,
// audio echo) are written in this assembly dialect and assembled at run
// time, once per process instance.
//
// Supported syntax: labels, conditions and S suffixes, all data-processing
// operations with barrel-shifter operands, multiplies, single/halfword/block
// transfers, swp, mrs/msr, b/bl/bx, swi, cdp/mcr/mrc, push/pop/nop/adr
// pseudo-instructions, `ldr rd, =imm` literal pools, and the directives
// .org .word .half .byte .ascii .asciz .space .align .balign .equ .ltorg
// (.text/.data/.global are accepted and ignored). Comments start with ';',
// '@' or '//'.
package asm

import (
	"fmt"
	"strings"
	"sync"

	"protean/internal/bus"
)

// Program is an assembled binary image. Its fields must not change once
// Image has been called.
type Program struct {
	// Origin is the load address of the first byte of Code.
	Origin uint32
	// Code is the raw little-endian image.
	Code []byte
	// Symbols maps every label and .equ to its value.
	Symbols map[string]uint32

	imageOnce sync.Once
	image     *bus.Image
}

// Image returns Code cut into RAM pages at Origin, built on the first
// call, for loading into a RAM mapped at address 0. Every RAM that loads
// it shares its pages until a store copies one (bus.RAM.LoadImage).
func (p *Program) Image() *bus.Image {
	p.imageOnce.Do(func() { p.image = bus.NewImage(p.Origin, p.Code) })
	return p.image
}

// Size returns the image length in bytes.
func (p *Program) Size() uint32 { return uint32(len(p.Code)) }

// End returns the first address past the image.
func (p *Program) End() uint32 { return p.Origin + p.Size() }

// Error is an assembly diagnostic with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type itemKind int

const (
	itemInstr itemKind = iota
	itemWord
	itemHalf
	itemByte
	itemAscii
	itemSpace
	itemPool
)

type item struct {
	kind itemKind
	line int
	addr uint32
	// instruction fields
	mnemonic string
	ops      []string
	// data fields
	exprs []string
	text  string
	size  uint32
	fill  byte
	// literal reference for `ldr rd, =expr`
	lit *litRef
	// pool index for itemPool
	pool int
}

type litRef struct {
	pool int
	slot int
}

type litPool struct {
	exprs []string
	index map[string]int
	addr  uint32
}

type assembler struct {
	origin    uint32
	originSet bool
	lc        uint32
	items     []item
	symbols   map[string]uint32
	pools     []*litPool
	curPool   int
	anyCode   bool
}

// Assemble assembles source at the given origin (overridden by a leading
// .org directive).
func Assemble(src string, origin uint32) (*Program, error) {
	a := &assembler{
		origin:  origin,
		lc:      origin,
		symbols: map[string]uint32{},
	}
	a.newPool()
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	// Flush any remaining literals at the end of the image.
	a.flushPool(0)
	code, err := a.pass2()
	if err != nil {
		return nil, err
	}
	return &Program{Origin: a.origin, Code: code, Symbols: a.symbols}, nil
}

func (a *assembler) newPool() {
	a.pools = append(a.pools, &litPool{index: map[string]int{}})
	a.curPool = len(a.pools) - 1
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// stripComment removes ; @ and // comments outside quotes.
func stripComment(s string) string {
	inChar, inStr := false, false
	for i := 0; i < len(s); i++ {
		ch := s[i]
		switch {
		case inChar:
			if ch == '\\' {
				i++
			} else if ch == '\'' {
				inChar = false
			}
		case inStr:
			if ch == '\\' {
				i++
			} else if ch == '"' {
				inStr = false
			}
		case ch == '\'':
			inChar = true
		case ch == '"':
			inStr = true
		case ch == ';' || ch == '@':
			return s[:i]
		case ch == '/' && i+1 < len(s) && s[i+1] == '/':
			return s[:i]
		}
	}
	return s
}

func (a *assembler) define(name string, val uint32, line int) error {
	if _, dup := a.symbols[name]; dup {
		return a.errf(line, "symbol %q redefined", name)
	}
	a.symbols[name] = val
	return nil
}

// macro is a user-defined text macro (.macro name p1, p2 ... .endm).
// Invocations substitute \p1-style parameters and expand inline.
type macro struct {
	name   string
	params []string
	lines  []string
}

// expandMacros rewrites the source, replacing macro invocations with their
// bodies. One level of expansion is applied repeatedly (bounded) so macros
// may invoke earlier macros.
func expandMacros(src string) (string, error) {
	macros := map[string]*macro{}
	var out []string
	var cur *macro
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(stripComment(raw))
		ln := lineNo + 1
		fields := strings.Fields(line)
		switch {
		case len(fields) > 0 && strings.ToLower(fields[0]) == ".macro":
			if cur != nil {
				return "", &Error{Line: ln, Msg: "nested .macro"}
			}
			if len(fields) < 2 {
				return "", &Error{Line: ln, Msg: ".macro needs a name"}
			}
			cur = &macro{name: strings.ToLower(fields[1])}
			rest := strings.TrimSpace(line[strings.Index(strings.ToLower(line), cur.name)+len(cur.name):])
			for _, p := range splitOperands(rest) {
				if p != "" {
					cur.params = append(cur.params, p)
				}
			}
			if !validSymbol(cur.name) {
				return "", &Error{Line: ln, Msg: "bad macro name " + cur.name}
			}
		case len(fields) > 0 && strings.ToLower(fields[0]) == ".endm":
			if cur == nil {
				return "", &Error{Line: ln, Msg: ".endm without .macro"}
			}
			macros[cur.name] = cur
			cur = nil
			// Keep line numbering stable for the lines we consumed.
			out = append(out, "")
		case cur != nil:
			cur.lines = append(cur.lines, raw)
			out = append(out, "")
		default:
			out = append(out, raw)
		}
	}
	if cur != nil {
		return "", &Error{Line: 0, Msg: ".macro " + cur.name + " never closed"}
	}
	if len(macros) == 0 {
		return src, nil
	}
	// Expand invocations, allowing macros that call macros (bounded depth).
	text := strings.Join(out, "\n")
	for depth := 0; depth < 8; depth++ {
		expanded, changed, err := expandOnce(text, macros, depth)
		if err != nil {
			return "", err
		}
		if !changed {
			return expanded, nil
		}
		text = expanded
	}
	return "", &Error{Line: 0, Msg: "macro expansion too deep (recursive macro?)"}
}

func expandOnce(src string, macros map[string]*macro, depth int) (string, bool, error) {
	var out []string
	changed := false
	invocation := 0
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(stripComment(raw))
		// Peel leading labels so "lbl: mymacro x" works.
		prefix := ""
		for {
			idx := labelEnd(line)
			if idx < 0 {
				break
			}
			prefix += line[:idx+1] + "\n"
			line = strings.TrimSpace(line[idx+1:])
		}
		mnEnd := strings.IndexAny(line, " \t")
		mn := line
		args := ""
		if mnEnd >= 0 {
			mn, args = line[:mnEnd], strings.TrimSpace(line[mnEnd+1:])
		}
		m, ok := macros[strings.ToLower(mn)]
		if !ok {
			out = append(out, raw)
			continue
		}
		actuals := splitOperands(args)
		if len(actuals) == 1 && actuals[0] == "" {
			actuals = nil
		}
		if len(actuals) != len(m.params) {
			return "", false, &Error{Line: lineNo + 1,
				Msg: "macro " + m.name + " wants " + strings.Join(m.params, ",")}
		}
		changed = true
		invocation++
		if prefix != "" {
			out = append(out, strings.TrimSuffix(prefix, "\n"))
		}
		// Unique suffix for \@ so local labels don't collide between
		// invocations.
		unique := fmt.Sprintf("_m%d_%d", depth, invocation)
		for _, bl := range m.lines {
			expanded := bl
			for i, p := range m.params {
				expanded = strings.ReplaceAll(expanded, `\`+p, actuals[i])
			}
			expanded = strings.ReplaceAll(expanded, `\@`, unique)
			out = append(out, expanded)
		}
	}
	return strings.Join(out, "\n"), changed, nil
}

func (a *assembler) pass1(src string) error {
	expanded, err := expandMacros(src)
	if err != nil {
		return err
	}
	for lineNo, raw := range strings.Split(expanded, "\n") {
		line := strings.TrimSpace(stripComment(raw))
		ln := lineNo + 1
		// Peel labels.
		for {
			idx := labelEnd(line)
			if idx < 0 {
				break
			}
			name := strings.TrimSpace(line[:idx])
			if !validSymbol(name) {
				return a.errf(ln, "bad label %q", name)
			}
			if err := a.define(name, a.lc, ln); err != nil {
				return err
			}
			line = strings.TrimSpace(line[idx+1:])
		}
		if line == "" {
			continue
		}
		// Split mnemonic from operands.
		mn := line
		args := ""
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			mn, args = line[:i], strings.TrimSpace(line[i+1:])
		}
		mn = strings.ToLower(mn)
		if strings.HasPrefix(mn, ".") {
			if err := a.directive(mn, args, ln); err != nil {
				return err
			}
			continue
		}
		ops := splitOperands(args)
		it := item{kind: itemInstr, line: ln, addr: a.lc, mnemonic: mn, ops: ops}
		// `ldr rd, =expr` needs a literal slot.
		if len(ops) == 2 && strings.HasPrefix(ops[1], "=") {
			expr := strings.TrimSpace(ops[1][1:])
			pool := a.pools[a.curPool]
			slot, ok := pool.index[expr]
			if !ok {
				slot = len(pool.exprs)
				pool.index[expr] = slot
				pool.exprs = append(pool.exprs, expr)
			}
			it.lit = &litRef{pool: a.curPool, slot: slot}
		}
		a.items = append(a.items, it)
		a.lc += 4
		a.anyCode = true
	}
	return nil
}

// labelEnd returns the index of a leading label's colon, or -1. A label is
// a symbol followed by ':' before any whitespace or operand text.
func labelEnd(line string) int {
	for i := 0; i < len(line); i++ {
		ch := rune(line[i])
		if ch == ':' {
			if i == 0 {
				return -1
			}
			return i
		}
		if !isSymChar(ch) {
			return -1
		}
	}
	return -1
}

func validSymbol(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if i == 0 && !isSymStart(r) {
			return false
		}
		if !isSymChar(r) {
			return false
		}
	}
	return true
}

func (a *assembler) evalNow(expr string, line int) (uint32, error) {
	v, err := evalExpr(expr, a.lc, func(name string) (uint32, bool) {
		v, ok := a.symbols[name]
		return v, ok
	})
	if err != nil {
		return 0, a.errf(line, "%v", err)
	}
	return v, nil
}

func (a *assembler) directive(mn, args string, ln int) error {
	switch mn {
	case ".org":
		v, err := a.evalNow(args, ln)
		if err != nil {
			return err
		}
		if a.anyCode || len(a.items) > 0 {
			return a.errf(ln, ".org must precede code and data")
		}
		a.origin = v
		a.originSet = true
		a.lc = v
	case ".word", ".long":
		exprs := splitOperands(args)
		if len(exprs) == 0 {
			return a.errf(ln, "%s needs at least one value", mn)
		}
		a.items = append(a.items, item{kind: itemWord, line: ln, addr: a.lc, exprs: exprs})
		a.lc += 4 * uint32(len(exprs))
	case ".half", ".hword", ".short":
		exprs := splitOperands(args)
		if len(exprs) == 0 {
			return a.errf(ln, "%s needs at least one value", mn)
		}
		a.items = append(a.items, item{kind: itemHalf, line: ln, addr: a.lc, exprs: exprs})
		a.lc += 2 * uint32(len(exprs))
	case ".byte":
		exprs := splitOperands(args)
		if len(exprs) == 0 {
			return a.errf(ln, ".byte needs at least one value")
		}
		a.items = append(a.items, item{kind: itemByte, line: ln, addr: a.lc, exprs: exprs})
		a.lc += uint32(len(exprs))
	case ".ascii", ".asciz", ".string":
		text, err := parseString(args)
		if err != nil {
			return a.errf(ln, "%v", err)
		}
		if mn != ".ascii" {
			text += "\x00"
		}
		a.items = append(a.items, item{kind: itemAscii, line: ln, addr: a.lc, text: text})
		a.lc += uint32(len(text))
	case ".space", ".skip":
		parts := splitOperands(args)
		if len(parts) == 0 || len(parts) > 2 {
			return a.errf(ln, ".space needs size[, fill]")
		}
		n, err := a.evalNow(parts[0], ln)
		if err != nil {
			return err
		}
		fill := byte(0)
		if len(parts) == 2 {
			f, err := a.evalNow(parts[1], ln)
			if err != nil {
				return err
			}
			fill = byte(f)
		}
		a.items = append(a.items, item{kind: itemSpace, line: ln, addr: a.lc, size: n, fill: fill})
		a.lc += n
	case ".align":
		v, err := a.evalNow(args, ln)
		if err != nil {
			return err
		}
		if v > 16 {
			return a.errf(ln, ".align %d too large", v)
		}
		a.alignTo(uint32(1)<<v, ln)
	case ".balign":
		v, err := a.evalNow(args, ln)
		if err != nil {
			return err
		}
		if v == 0 || v&(v-1) != 0 {
			return a.errf(ln, ".balign needs a power of two")
		}
		a.alignTo(v, ln)
	case ".equ", ".set":
		parts := splitOperands(args)
		if len(parts) != 2 {
			return a.errf(ln, "%s needs name, value", mn)
		}
		if !validSymbol(parts[0]) {
			return a.errf(ln, "bad symbol %q", parts[0])
		}
		v, err := a.evalNow(parts[1], ln)
		if err != nil {
			return err
		}
		return a.define(parts[0], v, ln)
	case ".ltorg":
		a.flushPool(ln)
	case ".global", ".globl", ".text", ".data", ".arm", ".code":
		// Accepted for source compatibility; no effect in a flat image.
	default:
		return a.errf(ln, "unknown directive %s", mn)
	}
	return nil
}

func (a *assembler) alignTo(align uint32, ln int) {
	rem := a.lc % align
	if rem == 0 {
		return
	}
	pad := align - rem
	a.items = append(a.items, item{kind: itemSpace, line: ln, addr: a.lc, size: pad})
	a.lc += pad
}

// flushPool places the current literal pool at the location counter.
func (a *assembler) flushPool(ln int) {
	pool := a.pools[a.curPool]
	if len(pool.exprs) == 0 {
		return
	}
	a.alignTo(4, ln)
	pool.addr = a.lc
	a.items = append(a.items, item{kind: itemPool, line: ln, addr: a.lc, pool: a.curPool})
	a.lc += 4 * uint32(len(pool.exprs))
	a.newPool()
}

func parseString(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", s)
	}
	body := s[1 : len(s)-1]
	var out strings.Builder
	for i := 0; i < len(body); i++ {
		ch := body[i]
		if ch != '\\' {
			out.WriteByte(ch)
			continue
		}
		i++
		if i >= len(body) {
			return "", fmt.Errorf("trailing backslash in string")
		}
		switch body[i] {
		case 'n':
			out.WriteByte('\n')
		case 't':
			out.WriteByte('\t')
		case 'r':
			out.WriteByte('\r')
		case '0':
			out.WriteByte(0)
		case '\\':
			out.WriteByte('\\')
		case '"':
			out.WriteByte('"')
		default:
			return "", fmt.Errorf("unknown escape \\%c", body[i])
		}
	}
	return out.String(), nil
}

func (a *assembler) lookup(name string) (uint32, bool) {
	v, ok := a.symbols[name]
	return v, ok
}

func (a *assembler) pass2() ([]byte, error) {
	size := a.lc - a.origin
	code := make([]byte, size)
	put32 := func(addr, v uint32) {
		off := addr - a.origin
		code[off] = byte(v)
		code[off+1] = byte(v >> 8)
		code[off+2] = byte(v >> 16)
		code[off+3] = byte(v >> 24)
	}
	for i := range a.items {
		it := &a.items[i]
		switch it.kind {
		case itemInstr:
			w, err := a.encode(it)
			if err != nil {
				return nil, err
			}
			put32(it.addr, w)
		case itemWord:
			for j, e := range it.exprs {
				v, err := evalExpr(e, it.addr+uint32(4*j), a.lookup)
				if err != nil {
					return nil, a.errf(it.line, "%v", err)
				}
				put32(it.addr+uint32(4*j), v)
			}
		case itemHalf:
			for j, e := range it.exprs {
				v, err := evalExpr(e, it.addr+uint32(2*j), a.lookup)
				if err != nil {
					return nil, a.errf(it.line, "%v", err)
				}
				off := it.addr + uint32(2*j) - a.origin
				code[off] = byte(v)
				code[off+1] = byte(v >> 8)
			}
		case itemByte:
			for j, e := range it.exprs {
				v, err := evalExpr(e, it.addr+uint32(j), a.lookup)
				if err != nil {
					return nil, a.errf(it.line, "%v", err)
				}
				code[it.addr+uint32(j)-a.origin] = byte(v)
			}
		case itemAscii:
			copy(code[it.addr-a.origin:], it.text)
		case itemSpace:
			if it.fill != 0 {
				off := it.addr - a.origin
				for j := uint32(0); j < it.size; j++ {
					code[off+j] = it.fill
				}
			}
		case itemPool:
			pool := a.pools[it.pool]
			for j, e := range pool.exprs {
				v, err := evalExpr(e, pool.addr+uint32(4*j), a.lookup)
				if err != nil {
					return nil, a.errf(it.line, "%v", err)
				}
				put32(pool.addr+uint32(4*j), v)
			}
		}
	}
	return code, nil
}
