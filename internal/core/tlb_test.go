package core

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTLBInsertLookup(t *testing.T) {
	tlb := NewTLB(4)
	k := IDTuple{PID: 3, CID: 7}
	if _, ok := tlb.Lookup(k); ok {
		t.Fatal("empty TLB hit")
	}
	tlb.Insert(k, 42)
	v, ok := tlb.Lookup(k)
	if !ok || v != 42 {
		t.Fatalf("lookup = %d,%v", v, ok)
	}
	// Same-key insert updates in place.
	tlb.Insert(k, 43)
	v, _ = tlb.Lookup(k)
	if v != 43 {
		t.Fatalf("update failed: %d", v)
	}
}

func TestTLBPIDIsolation(t *testing.T) {
	// Identical CIDs under different PIDs are distinct tuples — the whole
	// point of PID-tagged dispatch (§4.2): no flush on context switch.
	tlb := NewTLB(8)
	tlb.Insert(IDTuple{PID: 1, CID: 5}, 10)
	tlb.Insert(IDTuple{PID: 2, CID: 5}, 20)
	v1, ok1 := tlb.Lookup(IDTuple{PID: 1, CID: 5})
	v2, ok2 := tlb.Lookup(IDTuple{PID: 2, CID: 5})
	if !ok1 || !ok2 || v1 != 10 || v2 != 20 {
		t.Fatalf("isolation broken: %d,%v / %d,%v", v1, ok1, v2, ok2)
	}
}

func TestTLBManyToOne(t *testing.T) {
	// Several tuples may name one circuit (§4.2: "a custom instruction can
	// have many ID tuples associated with it").
	tlb := NewTLB(8)
	tlb.Insert(IDTuple{PID: 1, CID: 1}, 2)
	tlb.Insert(IDTuple{PID: 1, CID: 9}, 2)
	tlb.Insert(IDTuple{PID: 7, CID: 4}, 2)
	for _, k := range []IDTuple{{1, 1}, {1, 9}, {7, 4}} {
		if v, ok := tlb.Lookup(k); !ok || v != 2 {
			t.Fatalf("tuple %v lost", k)
		}
	}
}

func TestTLBEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(IDTuple{PID: 1, CID: 1}, 1)
	tlb.Insert(IDTuple{PID: 1, CID: 2}, 2)
	evicted, did := tlb.Insert(IDTuple{PID: 1, CID: 3}, 3)
	if !did {
		t.Fatal("full TLB did not evict")
	}
	if _, ok := tlb.Lookup(evicted); ok {
		t.Fatal("evicted tuple still resident")
	}
	if _, ok := tlb.Lookup(IDTuple{PID: 1, CID: 3}); !ok {
		t.Fatal("new tuple not resident")
	}
	// Exactly 2 of the 3 tuples resident.
	n := 0
	for _, k := range []IDTuple{{1, 1}, {1, 2}, {1, 3}} {
		if _, ok := tlb.Lookup(k); ok {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("%d tuples resident, want 2", n)
	}
}

func TestTLBRemove(t *testing.T) {
	tlb := NewTLB(4)
	k := IDTuple{PID: 1, CID: 1}
	tlb.Insert(k, 9)
	if !tlb.Remove(k) {
		t.Fatal("remove failed")
	}
	if tlb.Remove(k) {
		t.Fatal("double remove succeeded")
	}
	if _, ok := tlb.Lookup(k); ok {
		t.Fatal("removed tuple still hits")
	}
}

func TestTLBRemoveIf(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Insert(IDTuple{PID: 1, CID: 1}, 0)
	tlb.Insert(IDTuple{PID: 1, CID: 2}, 1)
	tlb.Insert(IDTuple{PID: 2, CID: 1}, 0)
	// Purge everything pointing at PFU 0.
	n := tlb.RemoveIf(func(k IDTuple, v uint32) bool { return v == 0 })
	if n != 2 {
		t.Fatalf("purged %d, want 2", n)
	}
	if _, ok := tlb.Lookup(IDTuple{PID: 1, CID: 2}); !ok {
		t.Fatal("survivor purged")
	}
}

func TestTLBStats(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Lookup(IDTuple{})
	tlb.Insert(IDTuple{PID: 1, CID: 1}, 0)
	tlb.Lookup(IDTuple{PID: 1, CID: 1})
	if tlb.Lookups != 2 || tlb.Misses != 1 {
		t.Fatalf("lookups=%d misses=%d", tlb.Lookups, tlb.Misses)
	}
}

// Property: after any insert sequence, a lookup of the most recently
// inserted tuple always hits with the right value (round-robin never evicts
// the newest entry).
func TestTLBNewestSurvives(t *testing.T) {
	f := func(keys []uint16) bool {
		tlb := NewTLB(4)
		var last IDTuple
		var lastVal uint32
		for i, k := range keys {
			key := IDTuple{PID: uint32(k >> 8), CID: uint32(k & 0xFF)}
			tlb.Insert(key, uint32(i))
			last, lastVal = key, uint32(i)
		}
		if len(keys) == 0 {
			return true
		}
		v, ok := tlb.Lookup(last)
		return ok && v == lastVal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the number of valid entries never exceeds capacity.
func TestTLBCapacityInvariant(t *testing.T) {
	f := func(keys []uint16) bool {
		tlb := NewTLB(3)
		for i, k := range keys {
			tlb.Insert(IDTuple{PID: uint32(k >> 8), CID: uint32(k & 0xFF)}, uint32(i))
		}
		return len(tlb.Entries()) <= 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refTLB is the CAM as an array of tagged entries, scanned validity
// first: the reference TestTLBMatchesReference holds TLB to.
type refTLB struct {
	valid []bool
	key   []IDTuple
	val   []uint32
	next  int
}

func (r *refTLB) find(k IDTuple) int {
	for i := range r.key {
		if r.valid[i] && r.key[i] == k {
			return i
		}
	}
	return -1
}

func (r *refTLB) insert(k IDTuple, v uint32) (IDTuple, bool) {
	if i := r.find(k); i >= 0 {
		r.val[i] = v
		return IDTuple{}, false
	}
	for i := range r.key {
		if j := (r.next + i) % len(r.key); !r.valid[j] {
			r.valid[j], r.key[j], r.val[j] = true, k, v
			r.next = (j + 1) % len(r.key)
			return IDTuple{}, false
		}
	}
	j := r.next
	old := r.key[j]
	r.key[j], r.val[j] = k, v
	r.next = (j + 1) % len(r.key)
	return old, true
}

// TestTLBMatchesReference drives TLB and refTLB through the same random
// inserts, lookups, removes and predicate purges over a small key space,
// so keys recur, go stale and come back, and requires every result, the
// round-robin evictions, the lookup and miss counts and the valid
// mappings to agree after every operation.
func TestTLBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		tlb := NewTLB(n)
		ref := &refTLB{valid: make([]bool, n), key: make([]IDTuple, n), val: make([]uint32, n)}
		var lookups, misses uint64
		for op := 0; op < 200; op++ {
			k := IDTuple{PID: uint32(rng.Intn(3)), CID: uint32(rng.Intn(4))}
			switch rng.Intn(4) {
			case 0:
				v := uint32(rng.Intn(4))
				gotK, gotE := tlb.Insert(k, v)
				wantK, wantE := ref.insert(k, v)
				if gotK != wantK || gotE != wantE {
					t.Fatalf("trial %d op %d: Insert(%v) evicted %v,%v, want %v,%v", trial, op, k, gotK, gotE, wantK, wantE)
				}
			case 1:
				got, ok := tlb.Lookup(k)
				lookups++
				i := ref.find(k)
				if i < 0 {
					misses++
				}
				if ok != (i >= 0) || ok && got != ref.val[i] {
					t.Fatalf("trial %d op %d: Lookup(%v) = %d,%v", trial, op, k, got, ok)
				}
			case 2:
				i := ref.find(k)
				if i >= 0 {
					ref.valid[i] = false
				}
				if tlb.Remove(k) != (i >= 0) {
					t.Fatalf("trial %d op %d: Remove(%v) disagrees", trial, op, k)
				}
			case 3:
				v := uint32(rng.Intn(4))
				want := 0
				for i := range ref.key {
					if ref.valid[i] && ref.val[i] == v {
						ref.valid[i] = false
						want++
					}
				}
				if got := tlb.RemoveIf(func(_ IDTuple, x uint32) bool { return x == v }); got != want {
					t.Fatalf("trial %d op %d: RemoveIf dropped %d, want %d", trial, op, got, want)
				}
			}
			wantEntries := map[IDTuple]uint32{}
			for i := range ref.key {
				if ref.valid[i] {
					wantEntries[ref.key[i]] = ref.val[i]
				}
			}
			if !maps.Equal(tlb.Entries(), wantEntries) || tlb.Lookups != lookups || tlb.Misses != misses {
				t.Fatalf("trial %d op %d: entries %v (lookups %d, misses %d), want %v (%d, %d)",
					trial, op, tlb.Entries(), tlb.Lookups, tlb.Misses, wantEntries, lookups, misses)
			}
		}
	}
}
