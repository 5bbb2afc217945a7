package fabric

import "fmt"

// Builder constructs a Netlist gate by gate. All gate helpers return the
// output net of a freshly created LUT; word helpers operate on slices of
// nets, least significant bit first.
//
// The builder performs no optimisation; call Optimize on the built netlist
// to fold constants and deduplicate structure before placement.
type Builder struct {
	n     Netlist
	c0    Net // cached constant drivers
	c1    Net
	built bool
}

// NewBuilder returns a Builder for a netlist with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{n: Netlist{Name: name}, c0: NilNet, c1: NilNet}
}

func (b *Builder) newNet() Net {
	id := Net(b.n.NumNets)
	b.n.NumNets++
	return id
}

// Input declares an input port of the given width and returns its nets.
func (b *Builder) Input(name string, width int) []Net {
	nets := make([]Net, width)
	for i := range nets {
		nets[i] = b.newNet()
	}
	b.n.Ports = append(b.n.Ports, Port{Name: name, Dir: DirIn, Nets: nets})
	return nets
}

// Output declares an output port driven by the given nets.
func (b *Builder) Output(name string, nets []Net) {
	cp := make([]Net, len(nets))
	copy(cp, nets)
	b.n.Ports = append(b.n.Ports, Port{Name: name, Dir: DirOut, Nets: cp})
}

// Lut creates a LUT with the given truth table over up to four inputs and
// returns its output net.
func (b *Builder) Lut(table uint16, ins ...Net) Net {
	if len(ins) > 4 {
		panic(fmt.Sprintf("fabric: LUT with %d inputs", len(ins)))
	}
	l := LUT{Table: CanonTable(table, len(ins)), Out: b.newNet()}
	for i := range l.In {
		l.In[i] = NilNet
	}
	copy(l.In[:], ins)
	b.n.LUTs = append(b.n.LUTs, l)
	return l.Out
}

// Const returns a net driven with the given constant value.
func (b *Builder) Const(v bool) Net {
	if v {
		if b.c1 == NilNet {
			b.c1 = b.Lut(0xFFFF)
		}
		return b.c1
	}
	if b.c0 == NilNet {
		b.c0 = b.Lut(0x0000)
	}
	return b.c0
}

// Buf returns a buffered copy of a (useful to give a port its own driver).
func (b *Builder) Buf(a Net) Net { return b.Lut(0xAAAA, a) }

// Not returns ¬a.
func (b *Builder) Not(a Net) Net { return b.Lut(0x5555, a) }

// And returns a∧b.
func (b *Builder) And(a, c Net) Net { return b.Lut(0x8888, a, c) }

// Or returns a∨b.
func (b *Builder) Or(a, c Net) Net { return b.Lut(0xEEEE, a, c) }

// Xor returns a⊕b.
func (b *Builder) Xor(a, c Net) Net { return b.Lut(0x6666, a, c) }

// Xnor returns ¬(a⊕b).
func (b *Builder) Xnor(a, c Net) Net { return b.Lut(0x9999, a, c) }

// Nand returns ¬(a∧b).
func (b *Builder) Nand(a, c Net) Net { return b.Lut(0x7777, a, c) }

// Nor returns ¬(a∨b).
func (b *Builder) Nor(a, c Net) Net { return b.Lut(0x1111, a, c) }

// AndNot returns a∧¬b.
func (b *Builder) AndNot(a, c Net) Net { return b.Lut(0x2222, a, c) }

// Mux returns d0 when s=0, d1 when s=1. Input order: s, d0, d1.
func (b *Builder) Mux(s, d0, d1 Net) Net {
	// index = s | d0<<1 | d1<<2; out = s ? d1 : d0, so the table has ones
	// at indices 2 (d0 with s=0), 5, 7 (d1 with s=1) and 6 (d0=d1=1):
	// 0b11100100 = 0xE4.
	return b.Lut(0xE4E4, s, d0, d1)
}

// Maj returns the majority of three inputs (carry function).
func (b *Builder) Maj(a, c, d Net) Net { return b.Lut(0xE8E8, a, c, d) }

// Xor3 returns a⊕b⊕c (sum function).
func (b *Builder) Xor3(a, c, d Net) Net { return b.Lut(0x9696, a, c, d) }

// DFF creates a D flip-flop with the given initial value and returns Q.
func (b *Builder) DFF(d Net, init bool) Net {
	q := b.newNet()
	b.n.FFs = append(b.n.FFs, FF{D: d, Q: q, Init: init})
	return q
}

// DFFE creates an enabled flip-flop: Q loads d when en=1, else holds.
func (b *Builder) DFFE(d, en Net, init bool) Net {
	q := b.newNet()
	hold := b.Mux(en, q, d)
	b.n.FFs = append(b.n.FFs, FF{D: hold, Q: q, Init: init})
	return q
}

// --- Word-level helpers (LSB first) ---

// WordConst returns width nets driven with the constant v.
func (b *Builder) WordConst(v uint64, width int) []Net {
	out := make([]Net, width)
	for i := range out {
		out[i] = b.Const(v>>i&1 != 0)
	}
	return out
}

// NotW inverts each bit.
func (b *Builder) NotW(a []Net) []Net {
	out := make([]Net, len(a))
	for i := range a {
		out[i] = b.Not(a[i])
	}
	return out
}

func (b *Builder) binW(name string, f func(x, y Net) Net, a, c []Net) []Net {
	if len(a) != len(c) {
		panic(fmt.Sprintf("fabric: %s width mismatch %d vs %d", name, len(a), len(c)))
	}
	out := make([]Net, len(a))
	for i := range a {
		out[i] = f(a[i], c[i])
	}
	return out
}

// AndW is bitwise AND.
func (b *Builder) AndW(a, c []Net) []Net { return b.binW("AndW", b.And, a, c) }

// OrW is bitwise OR.
func (b *Builder) OrW(a, c []Net) []Net { return b.binW("OrW", b.Or, a, c) }

// XorW is bitwise XOR.
func (b *Builder) XorW(a, c []Net) []Net { return b.binW("XorW", b.Xor, a, c) }

// MuxW selects d0 or d1 word-wide.
func (b *Builder) MuxW(s Net, d0, d1 []Net) []Net {
	if len(d0) != len(d1) {
		panic("fabric: MuxW width mismatch")
	}
	out := make([]Net, len(d0))
	for i := range d0 {
		out[i] = b.Mux(s, d0[i], d1[i])
	}
	return out
}

// Add builds a ripple-carry adder, returning the sum and carry out.
func (b *Builder) Add(a, c []Net, cin Net) (sum []Net, cout Net) {
	if len(a) != len(c) {
		panic("fabric: Add width mismatch")
	}
	sum = make([]Net, len(a))
	carry := cin
	for i := range a {
		sum[i] = b.Xor3(a[i], c[i], carry)
		carry = b.Maj(a[i], c[i], carry)
	}
	return sum, carry
}

// Sub builds a subtractor a−c, returning the difference and NOT-borrow
// (ARM-style carry).
func (b *Builder) Sub(a, c []Net) (diff []Net, carry Net) {
	return b.Add(a, b.NotW(c), b.Const(true))
}

// IsZero returns 1 when all bits of a are 0, via an OR reduction tree.
func (b *Builder) IsZero(a []Net) Net {
	return b.Not(b.ReduceOr(a))
}

// ReduceOr ORs all bits together with a balanced tree of 4-input LUTs.
func (b *Builder) ReduceOr(a []Net) Net {
	cur := append([]Net(nil), a...)
	for len(cur) > 1 {
		var next []Net
		for i := 0; i < len(cur); i += 4 {
			end := i + 4
			if end > len(cur) {
				end = len(cur)
			}
			group := cur[i:end]
			switch len(group) {
			case 1:
				next = append(next, group[0])
			case 2:
				next = append(next, b.Or(group[0], group[1]))
			case 3:
				next = append(next, b.Lut(0xFEFE, group[0], group[1], group[2]))
			case 4:
				next = append(next, b.Lut(0xFFFE, group[0], group[1], group[2], group[3]))
			}
		}
		cur = next
	}
	if len(cur) == 0 {
		return b.Const(false)
	}
	return cur[0]
}

// ReduceXor XORs all bits together (parity).
func (b *Builder) ReduceXor(a []Net) Net {
	cur := append([]Net(nil), a...)
	for len(cur) > 1 {
		var next []Net
		for i := 0; i < len(cur); i += 3 {
			end := i + 3
			if end > len(cur) {
				end = len(cur)
			}
			group := cur[i:end]
			switch len(group) {
			case 1:
				next = append(next, group[0])
			case 2:
				next = append(next, b.Xor(group[0], group[1]))
			case 3:
				next = append(next, b.Xor3(group[0], group[1], group[2]))
			}
		}
		cur = next
	}
	if len(cur) == 0 {
		return b.Const(false)
	}
	return cur[0]
}

// Equal returns 1 when words a and c are equal.
func (b *Builder) Equal(a, c []Net) Net {
	return b.IsZero(b.XorW(a, c))
}

// ShiftLeftConst shifts left by k, filling with zero; pure rewiring plus
// constants, no logic.
func (b *Builder) ShiftLeftConst(a []Net, k int) []Net {
	out := make([]Net, len(a))
	for i := range out {
		if i < k {
			out[i] = b.Const(false)
		} else {
			out[i] = a[i-k]
		}
	}
	return out
}

// ShiftRightConst shifts right by k, filling with zero.
func (b *Builder) ShiftRightConst(a []Net, k int) []Net {
	out := make([]Net, len(a))
	for i := range out {
		if i+k < len(a) {
			out[i] = a[i+k]
		} else {
			out[i] = b.Const(false)
		}
	}
	return out
}

// Extend zero-extends a to width.
func (b *Builder) Extend(a []Net, width int) []Net {
	if len(a) >= width {
		return a[:width]
	}
	out := make([]Net, width)
	copy(out, a)
	for i := len(a); i < width; i++ {
		out[i] = b.Const(false)
	}
	return out
}

// regMaker returns a register factory for feedback datapaths: each call
// allocates a word of flip-flops and returns the Q nets plus a setter that
// patches the D inputs once the next-state logic (which typically reads the
// Q nets) has been built. Build fails if a register is left unset, since
// its D would still point at the placeholder constant.
func (b *Builder) regMaker() func(width int) (q []Net, setD func(d []Net)) {
	return func(width int) ([]Net, func([]Net)) {
		qs := make([]Net, width)
		idx := make([]int, width)
		for i := 0; i < width; i++ {
			qs[i] = b.DFF(b.Const(false), false)
			idx[i] = len(b.n.FFs) - 1
		}
		return qs, func(d []Net) {
			if len(d) != width {
				panic(fmt.Sprintf("fabric: register setter got %d bits, want %d", len(d), width))
			}
			for i, fi := range idx {
				b.n.FFs[fi].D = d[i]
			}
		}
	}
}

// Build validates and returns the netlist. The builder must not be reused.
func (b *Builder) Build() (*Netlist, error) {
	if b.built {
		return nil, fmt.Errorf("fabric: builder for %q already built", b.n.Name)
	}
	b.built = true
	if err := b.n.Validate(); err != nil {
		return nil, err
	}
	return &b.n, nil
}

// MustBuild is Build but panics on error, for the stock circuit library
// where failure is a programming error.
func (b *Builder) MustBuild() *Netlist {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}
