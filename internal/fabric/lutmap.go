package fabric

// LUT mapping. The symbolic builder leaves one gate per hash-consed LUT
// of the circuit a schedule evaluates, and once constants fold most of
// them read two or three refs. emit re-covers those gates with 4-input
// LUTs, so the same roots cost fewer ops. The mapper is the priority-cut
// one of Mishchenko, Cho, Chatterjee and Brayton ("Combinational and
// sequential mapping with priority cuts", ICCAD 2007), aimed at area
// alone, since the settle loop pays per op and not per level: every live
// gate keeps its mapCuts best 4-feasible cuts, ranked by area flow; each
// gate's best cut then covers the schedule from its roots, and each
// mapped LUT's table is evaluated from its cut's cone.
//
// Compile runs on every workload's set-up path, so the mapper allocates
// its per-gate state once per Compile, keeps every gate's cuts in one
// arena of fixed-size cuts, and uses no maps. emit then pairs the LUTs
// that read one leaf set into one op (pair, permuteTable).

// mapCuts is how many priority cuts a gate keeps besides its trivial
// cut. Two map alphablend's burst to 621 LUTs and three to eight to 600,
// but each added cut makes Compile dearer, and Compile is on the set-up
// path.
const mapCuts = 2

// flowUnit is one LUT of area flow, in fixed point.
const flowUnit = 1 << 12

// cut is a set of at most four refs — inputs, registers or gates —
// whose values determine a gate, in the order merging found them. sig
// has bit ref%64 set for every leaf, so most unions with more than four
// leaves, and most refs that are not leaves, fail without a walk.
type cut struct {
	leaf [4]int32
	n    int32
	cost uint32 // area flow: flowUnit plus every leaf's flow
	sig  uint64
}

func sigBit(ref int32) uint64 { return 1 << (uint32(ref) & 63) }

// has reports whether x is a leaf of c.
func (c *cut) has(x int32) bool {
	if c.sig&sigBit(x) == 0 {
		return false
	}
	for _, y := range c.leaf[:c.n] {
		if y == x {
			return true
		}
	}
	return false
}

// subsetOf reports whether every leaf of a is a leaf of b.
func (a *cut) subsetOf(b *cut) bool {
	if a.sig&^b.sig != 0 || a.n > b.n {
		return false
	}
	for _, x := range a.leaf[:a.n] {
		if !b.has(x) {
			return false
		}
	}
	return true
}

// greatest returns c's greatest leaf.
func (c *cut) greatest() int32 {
	x := c.leaf[0]
	for _, y := range c.leaf[1:c.n] {
		x = max(x, y)
	}
	return x
}

// pins returns c's leaves as LUT pins, the unused ones symConst0.
func (c *cut) pins() [4]int32 {
	in := [4]int32{symConst0, symConst0, symConst0, symConst0}
	copy(in[:], c.leaf[:c.n])
	return in
}

// feasible reports whether the union of a and b may have at most four
// leaves: b adding more signature bits than a has room for rules it out.
func feasible(a, b *cut) bool {
	extra := b.sig &^ a.sig
	for range 4 - a.n {
		extra &= extra - 1
	}
	return extra == 0
}

// merge sets c to the union of a and b, a's leaves first, and reports
// whether it has at most four leaves.
func (m *mapper) merge(c, a, b *cut) bool {
	*c = *a
	for _, x := range b.leaf[:b.n] {
		if a.has(x) {
			continue
		}
		if c.n == 4 {
			return false
		}
		c.leaf[c.n] = x
		c.n++
		c.cost += m.flow[x]
	}
	c.sig |= b.sig
	return true
}

// mapper holds the per-gate state of mapping one symbolic circuit,
// whose gates every schedule of a Compile shares; emit reuses it for
// each.
type mapper struct {
	sc   *symCircuit
	base int32 // ref of gate 0

	// Per gate, by gate index. A gate's cuts are arena[first:first+nCuts],
	// best first, with its trivial cut after them.
	arena []cut
	first []int32
	nCuts []uint8
	refs  []int32  // fanout within the schedule being mapped; 0 = dead
	pos   []int32  // 1 + the wire past out0 the gate's LUT writes, 0 when not mapped
	mate  []int32  // 1 + the gate whose LUT shares the gate's op, 0 when none
	link  []int32  // 1 + the next gate of the cover with the same greatest leaf, 0 at the end
	level []int32  // level of the gate's LUT, 0 until it is built
	tab   []uint16 // truth table of the gate's LUT, once built

	// The cuts the gate being enumerated keeps so far, and whether there
	// are mapCuts of them; acc holds its unions of the first 2, 3 and 4
	// pins' cuts.
	kept  [mapCuts]cut
	nKept int
	acc   [3]cut

	// By ref. flow is the area flow of a gate's best cut over its fanout,
	// 0 for an input or register; in a cone coneTable evaluates, val[ref]
	// is ref's truth vector when seen[ref] == stamp; chain[ref] is 1 + the
	// first gate of the cover whose greatest leaf is ref, 0 when none.
	flow  []uint32
	seen  []uint32
	val   []uint16
	stamp uint32
	chain []int32
}

func newMapper(sc *symCircuit) *mapper {
	n, nRefs := len(sc.gates), int(sc.gateBase())+len(sc.gates)
	return &mapper{
		sc:    sc,
		base:  sc.gateBase(),
		arena: make([]cut, 0, (mapCuts+1)*n),
		first: make([]int32, n),
		nCuts: make([]uint8, n),
		refs:  make([]int32, n),
		pos:   make([]int32, n),
		mate:  make([]int32, n),
		link:  make([]int32, n),
		level: make([]int32, n),
		tab:   make([]uint16, n),
		flow:  make([]uint32, nRefs),
		seen:  make([]uint32, nRefs),
		val:   make([]uint16, nRefs),
		chain: make([]int32, nRefs),
	}
}

// best returns gate g's best cut.
func (m *mapper) best(g int) *cut { return &m.arena[m.first[g]] }

// cover maps the gates r's roots need and returns them in ref order,
// one LUT each, its table and level built. A gate is in the cover when
// a root or the best cut of a gate in the cover reads it; cover leaves
// pos marking them. Each gate is enumerated, and its LUT built, once per
// mapper: a gate an earlier cover mapped keeps its cuts, ranked by the
// fanout it had there (the live gates and roots reading it), and its
// table.
func (m *mapper) cover(r cycleRefs) []int32 {
	base := m.base
	clear(m.refs)
	clear(m.pos)
	use := func(x int32) {
		if x >= base {
			m.refs[x-base]++
		}
	}
	for _, x := range r.outs {
		use(x)
	}
	for _, x := range r.next {
		use(x)
	}
	for g := len(m.refs) - 1; g >= 0; g-- {
		if m.refs[g] > 0 {
			for _, x := range m.sc.gates[g].in {
				use(x)
			}
		}
	}
	for g := range m.refs {
		if m.refs[g] > 0 && m.nCuts[g] == 0 {
			m.enumerate(g)
		}
	}
	need := func(x int32) {
		if x >= base {
			m.pos[x-base] = 1
		}
	}
	for _, x := range r.outs {
		need(x)
	}
	for _, x := range r.next {
		need(x)
	}
	n := 0
	for g := len(m.pos) - 1; g >= 0; g-- {
		if m.pos[g] != 0 {
			best := m.best(g)
			for _, x := range best.leaf[:best.n] {
				need(x)
			}
			n++
		}
	}
	gates := make([]int32, 0, n)
	for g := range m.pos {
		if m.pos[g] == 0 {
			continue
		}
		if m.level[g] == 0 {
			best := m.best(g)
			m.tab[g] = m.coneTable(g, best)
			lv := int32(0)
			for _, x := range best.leaf[:best.n] {
				if x >= base {
					lv = max(lv, m.level[x-base])
				}
			}
			m.level[g] = lv + 1
		}
		gates = append(gates, int32(g))
	}
	return gates
}

// enumerate fills gate g's priority cuts with the unions of one
// candidate cut per pin — the pin's gate's priority cuts, best first,
// then its trivial cut — sets g's area flow from its best cut, and
// appends its cuts to the arena.
func (m *mapper) enumerate(g int) {
	gt := &m.sc.gates[g]
	var triv [4]cut
	var pins [4][]cut
	a := 0
	for ; a < 4 && gt.in[a] >= 0; a++ {
		if x := gt.in[a]; x >= m.base {
			h := int(x - m.base)
			pins[a] = m.arena[m.first[h] : m.first[h]+int32(m.nCuts[h])+1]
		} else {
			triv[a] = trivialCut(x, 0)
			pins[a] = triv[a : a+1]
		}
	}
	m.nKept = 0
	for i := range pins[0] {
		m.grow(&pins[0][i], pins[1:a], 0)
	}
	ref := m.base + int32(g)
	m.flow[ref] = m.kept[0].cost / uint32(m.refs[g])
	m.first[g], m.nCuts[g] = int32(len(m.arena)), uint8(m.nKept)
	m.arena = append(append(m.arena, m.kept[:m.nKept]...), trivialCut(ref, m.flow[ref]))
}

func trivialCut(ref int32, flow uint32) cut {
	return cut{leaf: [4]int32{ref}, n: 1, cost: flowUnit + flow, sig: sigBit(ref)}
}

// grow merges u, a union of one cut per pin so far, with each candidate
// cut of the next pin and offers every union of one cut per pin to the
// gate being enumerated; m.acc[d] holds the next union. Once the gate
// keeps mapCuts cuts, a union that ranks after the worst is dropped
// with all it would grow into, since merging only adds leaves and flow;
// a union costs at least as much as each cut in it, so a candidate alone
// can rule it out.
func (m *mapper) grow(u *cut, pins [][]cut, d int) {
	if len(pins) == 0 {
		m.insert(u)
		return
	}
	next := &m.acc[d]
	worst := &m.kept[mapCuts-1]
	for i := range pins[0] {
		c := &pins[0][i]
		full := m.nKept == mapCuts
		if full && c.cost > worst.cost || !feasible(u, c) || !m.merge(next, u, c) || full && worse(next, worst) {
			continue
		}
		m.grow(next, pins[1:], d+1)
	}
}

// insert adds c to the kept cuts, ordered by area flow and then by
// size, unless a kept cut is a subset of it (a subset never costs more);
// kept cuts c is a proper subset of drop out.
func (m *mapper) insert(c *cut) {
	set := m.kept[:m.nKept]
	for i := range set {
		if set[i].subsetOf(c) {
			return
		}
	}
	n := 0
	for i := range set {
		if !c.subsetOf(&set[i]) {
			set[n] = set[i]
			n++
		}
	}
	at := n
	for at > 0 && worse(&set[at-1], c) {
		at--
	}
	if at < mapCuts {
		n = min(n+1, mapCuts)
		copy(m.kept[at+1:n], m.kept[at:n-1])
		m.kept[at] = *c
	}
	m.nKept = n
}

// worse reports whether a ranks after b: more area flow, or as much on
// more leaves.
func worse(a, b *cut) bool {
	return a.cost > b.cost || a.cost == b.cost && a.n > b.n
}

// pair pairs the LUTs of gates, a cover in ref order, that read one leaf
// set, two by two in ref order, and sets mate. A LUT's level is one more
// than its leaves' greatest, so such LUTs share a level. They also share
// a greatest leaf, so a gate is compared only with the later gates
// chained on its own greatest leaf.
func (m *mapper) pair(gates []int32) {
	clear(m.chain)
	for i := len(gates) - 1; i >= 0; i-- {
		g := gates[i]
		top := m.best(int(g)).greatest()
		m.link[g], m.chain[top], m.mate[g] = m.chain[top], g+1, 0
	}
	for _, g := range gates {
		if m.mate[g] != 0 {
			continue
		}
		a := m.best(int(g))
		for h := m.link[g] - 1; h >= 0; h = m.link[h] - 1 {
			if b := m.best(int(h)); a.sig == b.sig && a.n == b.n && m.mate[h] == 0 && a.subsetOf(b) {
				m.mate[g], m.mate[h] = h+1, g+1
				break
			}
		}
	}
}

// permuteTable re-expresses tab, a table over from's leaves as pins, over
// to's, which are the same refs in some order.
func permuteTable(tab uint16, from, to *cut) uint16 {
	if from.leaf == to.leaf {
		return tab
	}
	var at [4]int // from's leaf i is to's pin at[i]
	for i, x := range from.leaf[:from.n] {
		for j, y := range to.leaf[:to.n] {
			if x == y {
				at[i] = j
			}
		}
	}
	var t uint16
	for e := range 16 {
		src := 0
		for i := range from.n {
			src |= e >> at[i] & 1 << i
		}
		t |= tab >> src & 1 << e
	}
	return t
}

// projTable[i] is the truth table of pin i alone.
var projTable = [4]uint16{0xAAAA, 0xCCCC, 0xF0F0, 0xFF00}

// coneTable returns the truth table, over c's leaves as pins 0.., of
// gate g, which c cuts from the inputs and registers: g's own table when
// c is g's pins in order, else its cone evaluated once on 16-entry
// vectors, leaf i holding projTable[i].
func (m *mapper) coneTable(g int, c *cut) uint16 {
	gt := &m.sc.gates[g]
	if c.pins() == gt.in {
		return gt.tab
	}
	m.stamp++
	for i, x := range c.leaf[:c.n] {
		m.seen[x], m.val[x] = m.stamp, projTable[i]
	}
	return m.eval(m.base + int32(g))
}

// eval returns the truth vector of ref in the cone coneTable evaluates,
// each gate once.
func (m *mapper) eval(ref int32) uint16 {
	if m.seen[ref] == m.stamp {
		return m.val[ref]
	}
	gt := &m.sc.gates[ref-m.base]
	var x [4]uint16
	a := 0
	for ; a < 4 && gt.in[a] >= 0; a++ {
		x[a] = m.eval(gt.in[a])
	}
	v := lutVec(gt.tab, x, a)
	m.seen[ref], m.val[ref] = m.stamp, v
	return v
}

// lutVec applies a LUT whose pins past a are ignored to 16-entry truth
// vectors: one Shannon mux per table entry pair and pin.
func lutVec(tab uint16, x [4]uint16, a int) uint16 {
	var t [16]uint16
	n := 1 << a
	for i := range n {
		t[i] = -(tab >> i & 1)
	}
	for p := range a {
		n >>= 1
		for j := range n {
			t[j] = t[2*j]&^x[p] | t[2*j+1]&x[p]
		}
	}
	return t[0]
}
