package kernel

import (
	"fmt"
	"math/rand"
	"strings"
)

// PolicyKind selects the CIS circuit-replacement policy. The paper's
// experiments use round robin and random (§5.1.1); LRU and second chance
// are the classic algorithms §4.5's usage counters enable, implemented here
// as the natural extension.
type PolicyKind int

// Replacement policies.
const (
	PolicyRoundRobin PolicyKind = iota
	PolicyRandom
	PolicyLRU
	PolicySecondChance
)

func (p PolicyKind) String() string {
	switch p {
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyRandom:
		return "random"
	case PolicyLRU:
		return "lru"
	case PolicySecondChance:
		return "second-chance"
	default:
		return fmt.Sprintf("policy%d", int(p))
	}
}

// ParsePolicy is the inverse of PolicyKind.String: it accepts every
// canonical name ("round-robin", "random", "lru", "second-chance") plus the
// short command-line spellings "rr" and "2chance", case-insensitively.
func ParsePolicy(s string) (PolicyKind, error) {
	switch strings.ToLower(s) {
	case "rr", "round-robin":
		return PolicyRoundRobin, nil
	case "random":
		return PolicyRandom, nil
	case "lru":
		return PolicyLRU, nil
	case "2chance", "second-chance":
		return PolicySecondChance, nil
	}
	return 0, fmt.Errorf("kernel: unknown policy %q (want round-robin, random, lru or second-chance)", s)
}

// policy picks eviction victims among occupied PFUs.
type policy interface {
	// pick chooses a victim PFU index from the candidates (all occupied).
	pick(c *CIS) int
}

// newPolicy builds a victim picker for n PFUs; only the random policy
// draws from seed.
func newPolicy(kind PolicyKind, n int, seed int64) policy {
	switch kind {
	case PolicyRandom:
		return &randomPolicy{rng: rand.New(rand.NewSource(seed))}
	case PolicyLRU:
		return &lruPolicy{lastUse: make([]uint64, n)}
	case PolicySecondChance:
		return &secondChancePolicy{ref: make([]bool, n)}
	default:
		return &roundRobinPolicy{}
	}
}

// roundRobinPolicy cycles through PFU slots regardless of use — the
// paper's baseline, which interacts badly with the round-robin process
// scheduler ("applications lose their circuits after a context switch").
type roundRobinPolicy struct {
	next int
}

func (p *roundRobinPolicy) pick(c *CIS) int {
	v := p.next % c.numPFUs()
	p.next = (v + 1) % c.numPFUs()
	return v
}

// randomPolicy picks a uniformly random victim.
type randomPolicy struct {
	rng *rand.Rand
}

func (p *randomPolicy) pick(c *CIS) int {
	return p.rng.Intn(c.numPFUs())
}

// lruPolicy evicts the least recently used circuit, with recency derived
// from the §4.5 usage counters: at each decision the CIS reads and clears
// every PFU's completion counter; a nonzero count stamps the PFU with the
// current time.
type lruPolicy struct {
	lastUse []uint64
	hand    int // tie-break rotation so equal stamps don't pin one PFU
}

func (p *lruPolicy) pick(c *CIS) int {
	for i := range p.lastUse {
		if c.takeCounter(i) > 0 {
			p.lastUse[i] = c.now()
		}
	}
	n := c.numPFUs()
	best := p.hand % n
	bestT := p.lastUse[best]
	for i := 1; i < n; i++ {
		j := (p.hand + i) % n
		if p.lastUse[j] < bestT {
			best, bestT = j, p.lastUse[j]
		}
	}
	p.hand = (best + 1) % n
	return best
}

// secondChancePolicy is the classic clock algorithm: the reference bit is
// "completed anything since the last sweep", read from the usage counters.
type secondChancePolicy struct {
	ref  []bool
	hand int
}

func (p *secondChancePolicy) pick(c *CIS) int {
	// Refresh reference bits from the hardware counters.
	for i := range p.ref {
		if c.takeCounter(i) > 0 {
			p.ref[i] = true
		}
	}
	for sweep := 0; sweep < 2*len(p.ref); sweep++ {
		i := p.hand
		p.hand = (p.hand + 1) % len(p.ref)
		if p.ref[i] {
			p.ref[i] = false
			continue
		}
		return i
	}
	return p.hand
}
