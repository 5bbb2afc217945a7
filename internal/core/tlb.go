// Package core implements the Proteus architecture's reconfigurable
// function unit (RFU) — the paper's primary contribution. The RFU sits on
// the processor as coprocessor p1 and contains:
//
//   - a 16-entry 32-bit register file feeding the PFUs (§4),
//   - a set of Programmable Function Units executing custom instructions
//     with the two-word-in/one-word-out interface and the init/done
//     long-instruction protocol with per-PFU status registers (§4.4),
//   - the dispatch mechanism of §4.2 (Figure 1): two TLBs, each a CAM over
//     (PID, CID) tuples indexing a RAM line, resolving an exec instruction
//     to a PFU, to a software-alternative address, or to a fault,
//   - the operand-capture registers backing software dispatch (§4.3),
//   - per-PFU usage counters for the OS replacement policies (§4.5),
//   - the configuration port with split static/state transfers (§4.1).
package core

// IDTuple is the system-unique name under which a process refers to a
// custom instruction: the processor-held PID combined with the
// process-chosen Circuit ID. A custom instruction instance can have many ID
// tuples (sharing); a tuple resolves to at most one instance.
type IDTuple struct {
	PID uint32
	CID uint32
}

// TLB is one translation buffer of the dispatch mechanism: a fully
// associative CAM over ID tuples indexing a RAM of 32-bit lines (a PFU
// number for TLB1, a software address for TLB2). Replacement is
// round-robin over the entry array, the usual hardware choice.
//
// Because entries are PID-tagged, nothing needs flushing on a context
// switch — the core advantage over PRISC's per-PFU ID registers.
type TLB struct {
	// Entry i maps keys[i] to vals[i] while valid[i] is set. A key is
	// packed PID<<32 | CID, so a probe scans one contiguous word array and
	// tests validity only on a match.
	keys  []uint64
	vals  []uint32
	valid []bool
	next  int // round-robin insertion cursor

	// Lookups and Misses count CAM probes for statistics.
	Lookups uint64
	Misses  uint64
}

func packKey(key IDTuple) uint64 { return uint64(key.PID)<<32 | uint64(key.CID) }

func unpackKey(k uint64) IDTuple { return IDTuple{PID: uint32(k >> 32), CID: uint32(k)} }

// NewTLB returns a TLB with the given number of CAM entries.
func NewTLB(entries int) *TLB {
	return &TLB{keys: make([]uint64, entries), vals: make([]uint32, entries), valid: make([]bool, entries)}
}

// Size reports the CAM capacity.
func (t *TLB) Size() int { return len(t.keys) }

// find returns the entry holding a valid mapping for key k, or -1. An
// invalidated entry keeps its key, so a match is checked for validity
// and the scan goes on past a stale one.
func (t *TLB) find(k uint64) int {
	for i, x := range t.keys {
		if x == k && t.valid[i] {
			return i
		}
	}
	return -1
}

// Lookup probes the CAM.
func (t *TLB) Lookup(key IDTuple) (uint32, bool) {
	t.Lookups++
	if i := t.find(packKey(key)); i >= 0 {
		return t.vals[i], true
	}
	t.Misses++
	return 0, false
}

// Insert installs a mapping, replacing an existing mapping for the same
// tuple or evicting round-robin when full. It reports the evicted tuple, if
// any, so the OS can account for mapping pressure.
func (t *TLB) Insert(key IDTuple, val uint32) (evicted IDTuple, didEvict bool) {
	k := packKey(key)
	// Same-key update.
	if i := t.find(k); i >= 0 {
		t.vals[i] = val
		return IDTuple{}, false
	}
	// Free slot, else evict at the cursor.
	j := t.next
	for i := range t.keys {
		if c := (t.next + i) % len(t.keys); !t.valid[c] {
			j = c
			break
		}
	}
	if t.valid[j] {
		evicted, didEvict = unpackKey(t.keys[j]), true
	}
	t.keys[j], t.vals[j], t.valid[j] = k, val, true
	t.next = (j + 1) % len(t.keys)
	return evicted, didEvict
}

// Remove invalidates the mapping for a tuple, reporting whether it existed.
func (t *TLB) Remove(key IDTuple) bool {
	if i := t.find(packKey(key)); i >= 0 {
		t.valid[i] = false
		return true
	}
	return false
}

// RemoveIf invalidates every mapping the predicate selects and reports how
// many were dropped. The OS uses this to purge a PFU's tuples on eviction
// or a process's tuples on exit.
func (t *TLB) RemoveIf(pred func(key IDTuple, val uint32) bool) int {
	n := 0
	for i, ok := range t.valid {
		if ok && pred(unpackKey(t.keys[i]), t.vals[i]) {
			t.valid[i] = false
			n++
		}
	}
	return n
}

// Entries returns a snapshot of the valid mappings, for debugging tools.
func (t *TLB) Entries() map[IDTuple]uint32 {
	out := make(map[IDTuple]uint32)
	for i, ok := range t.valid {
		if ok {
			out[unpackKey(t.keys[i])] = t.vals[i]
		}
	}
	return out
}
