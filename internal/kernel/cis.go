package kernel

import (
	"protean/internal/core"
	"protean/internal/trace"
)

// Registration is a custom instruction registered with the OS by a process
// (§2): the circuit image, the process-unique CID, and optionally the
// address of a software alternative.
type Registration struct {
	CID      uint32
	Image    *core.Image
	SoftAddr uint32 // 0 = no software alternative

	owner *Process
	// resident is the PFU currently holding this registration's circuit,
	// -1 if none.
	resident int
	// swapped holds the state of a previously evicted live circuit, so a
	// reload restores rather than resets it (§4.1 split configuration).
	// Outside sharing mode it points at slot, which each eviction reuses:
	// a registration is evicted only while resident, after Restore has
	// consumed the slot's previous state.
	swapped *core.SwappedCircuit
	slot    core.SwappedCircuit
	// shared marks registrations mapped onto another registration's
	// instance (sharing mode).
	sharedWith *Registration
}

// CISStats aggregates Custom Instruction Scheduler activity.
type CISStats struct {
	Faults        uint64 // dispatch faults delivered to the CIS
	MappingFaults uint64 // resolved by reinstalling a TLB entry only
	Loads         uint64 // full configuration loads
	Restores      uint64 // configuration loads with state restore
	Evictions     uint64 // circuits swapped off the array
	SoftMaps      uint64 // faults resolved to the software alternative
	ShareHits     uint64 // faults resolved by sharing a resident instance
	ConfigBytes   uint64 // total configuration-port traffic
	ConfigCycles  uint64 // cycles spent on the configuration port
	PageIns       uint64 // bitstream page-ins charged (PageInCycles model)
}

// CIS is the Custom Instruction Scheduler, the POrSCHE kernel component
// that owns the PFUs: it loads and unloads circuits and manages the
// dispatch TLBs (§5).
type CIS struct {
	k      *Kernel
	owners [][]*Registration // per PFU: registrations mapped to its circuit
	// restoredFrom, in sharing mode, is per PFU the SwappedCircuit its
	// circuit was restored from (nil for a fresh load). The circuit's
	// other sharers may still hold that SwappedCircuit without having
	// faulted back in; passOn moves them on when the circuit leaves the
	// PFU, so each SwappedCircuit is restored at most once.
	restoredFrom []*core.SwappedCircuit
	pol          policy
	Stats        CISStats
}

func newCIS(k *Kernel) *CIS {
	c := &CIS{
		k:      k,
		owners: make([][]*Registration, k.M.RFU.NumPFUs()),
	}
	c.pol = newPolicy(k.cfg.Policy, k.M.RFU.NumPFUs(), k.cfg.Seed)
	if k.cfg.Sharing {
		c.restoredFrom = make([]*core.SwappedCircuit, k.M.RFU.NumPFUs())
	}
	return c
}

func (c *CIS) numPFUs() int { return len(c.owners) }

func (c *CIS) now() uint64 { return c.k.M.Cycles() }

// takeCounter reads and clears a PFU usage counter (the §4.5 OS interface).
func (c *CIS) takeCounter(pfu int) uint32 {
	v := c.k.M.RFU.Counter(pfu)
	c.k.M.RFU.ClearCounter(pfu)
	return v
}

// fault handles a custom-instruction dispatch fault for the running
// process. It implements the OS half of §4.2's dispatch flow and returns
// false if the process had no valid registration (the caller kills it).
func (c *CIS) fault(p *Process, cid uint32) bool {
	c.Stats.Faults++
	reg, ok := p.registrations[cid]
	if !ok {
		return false
	}
	rfu := c.k.M.RFU
	key := core.IDTuple{PID: p.PID, CID: cid}

	// "When the operating system sees a custom instruction fault it must
	// first check if it is just a mapping fault before attempting to load
	// the hardware" (§4.2).
	if reg.resident >= 0 {
		rfu.TLB1.Insert(key, uint32(reg.resident))
		c.k.charge(c.k.cfg.Costs.MapInstall)
		c.Stats.MappingFaults++
		c.k.log(trace.EvMapInstall, p.PID, reg.Image.Name)
		return true
	}

	// Sharing mode: another process's resident instance of the same image
	// can serve this tuple ("applications using the same circuits would
	// attempt to share instances", §5.1).
	if c.k.cfg.Sharing {
		for pfu, owners := range c.owners {
			if len(owners) > 0 && owners[0].Image == reg.Image {
				c.owners[pfu] = append(c.owners[pfu], reg)
				reg.resident = pfu
				reg.sharedWith = owners[0]
				rfu.TLB1.Insert(key, uint32(pfu))
				c.k.charge(c.k.cfg.Costs.MapInstall)
				c.Stats.ShareHits++
				note := ""
				if c.k.tlog.Keeps() {
					note = "shared " + reg.Image.Name
				}
				c.k.log(trace.EvMapInstall, p.PID, note)
				return true
			}
		}
	}

	// Free PFU?
	target := -1
	for pfu, owners := range c.owners {
		if len(owners) == 0 {
			target = pfu
			break
		}
	}

	if target < 0 {
		// Contention. In software-dispatch mode, defer to the software
		// alternative rather than swapping circuits (§5.1.2).
		if c.k.cfg.SoftDispatch && reg.SoftAddr != 0 {
			rfu.TLB2.Insert(key, reg.SoftAddr)
			c.k.charge(c.k.cfg.Costs.MapInstall)
			c.Stats.SoftMaps++
			c.k.log(trace.EvSoftMap, p.PID, reg.Image.Name)
			return true
		}
		c.k.charge(c.k.cfg.Costs.ScheduleDecision)
		target = c.pol.pick(c)
		c.evict(target)
	}

	// Configure the PFU: full static frames, plus state frames when
	// resuming a previously evicted live circuit. Under memory pressure
	// the bitstream itself must first be paged in (§5.1.3). Loads go
	// through the instance API: the CIS stamps an instance of the image's
	// shared compiled program (host-side cheap), while the static-frame
	// traffic keeps its full modeled cost below. A swapped live circuit
	// restores the instance it was evicted with, whose registers are its
	// state frames (§4.1).
	if c.k.cfg.PageInCycles > 0 {
		c.k.charge(c.k.cfg.PageInCycles)
		c.Stats.PageIns++
	}
	var bytes int
	var err error
	sc := reg.swapped
	if sc != nil {
		bytes, err = rfu.Restore(target, sc)
		reg.swapped = nil
		c.Stats.Restores++
		c.k.log(trace.EvStateRestore, p.PID, reg.Image.Name)
	} else {
		bytes, err = rfu.LoadImage(target, reg.Image)
		c.k.log(trace.EvConfigLoad, p.PID, reg.Image.Name)
	}
	if err != nil {
		// A malformed image (e.g. combinational loop) is a functional
		// security violation: the process dies (§2).
		return false
	}
	if c.k.cfg.Sharing {
		c.restoredFrom[target] = sc
	}
	cycles := c.k.M.StallForConfig(bytes)
	c.Stats.Loads++
	c.Stats.ConfigBytes += uint64(bytes)
	c.Stats.ConfigCycles += uint64(cycles)

	c.owners[target] = append(c.owners[target][:0], reg)
	reg.resident = target
	reg.sharedWith = nil
	rfu.TLB1.Insert(key, uint32(target))
	c.k.charge(c.k.cfg.Costs.MapInstall)
	return true
}

// evict swaps the circuit out of a PFU, saving its state frames for the
// owning registrations and purging stale TLB mappings.
func (c *CIS) evict(pfu int) {
	owners := c.owners[pfu]
	if len(owners) == 0 {
		return
	}
	rfu := c.k.M.RFU
	// A shared circuit's owners may hold the state it was restored from
	// (see passOn), so sharing mode saves into fresh state.
	sc := &owners[0].slot
	if c.k.cfg.Sharing {
		sc = new(core.SwappedCircuit)
	}
	stateBytes, err := rfu.SwapOut(pfu, sc)
	if err != nil {
		sc = nil
	} else {
		readback := stateBytes
		if c.k.cfg.FullReadback {
			// Without split configuration the whole image crosses the
			// port to preserve the registers (A2 ablation).
			readback = owners[0].Image.StaticBytes
		}
		cycles := c.k.M.StallForConfig(readback)
		c.Stats.ConfigBytes += uint64(readback)
		c.Stats.ConfigCycles += uint64(cycles)
		for _, reg := range owners {
			reg.swapped = sc
			reg.resident = -1
			reg.sharedWith = nil
		}
	}
	if c.k.cfg.Sharing {
		c.passOn(pfu, sc)
	}
	c.Stats.Evictions++
	c.k.log(trace.EvEvict, owners[0].owner.PID, owners[0].Image.Name)
	rfu.TLB1.RemoveIf(func(k core.IDTuple, v uint32) bool { return v == uint32(pfu) })
	c.owners[pfu] = c.owners[pfu][:0]
}

// passOn runs in sharing mode when pfu's circuit leaves the array: every
// registration still holding the SwappedCircuit the circuit was restored
// from — a sharer that has not faulted back in since — takes sc, the
// state saved at this eviction, or nil when the circuit is unloaded
// unsaved, so its next fault loads the image afresh.
func (c *CIS) passOn(pfu int, sc *core.SwappedCircuit) {
	from := c.restoredFrom[pfu]
	c.restoredFrom[pfu] = nil
	if from == nil {
		return
	}
	for _, p := range c.k.procs {
		for _, reg := range p.registrations {
			if reg.swapped == from {
				reg.swapped = sc
			}
		}
	}
}

// releaseProcess drops everything a finished process holds: resident
// circuits, saved state and TLB entries. In software-dispatch mode the
// freed hardware is re-offered by flushing all TLB2 mappings, so deferred
// processes re-fault and can claim PFUs.
func (c *CIS) releaseProcess(p *Process) {
	rfu := c.k.M.RFU
	for _, reg := range p.registrations {
		if reg.resident >= 0 {
			pfu := reg.resident
			remaining := c.owners[pfu][:0]
			for _, r := range c.owners[pfu] {
				if r != reg {
					remaining = append(remaining, r)
				}
			}
			c.owners[pfu] = remaining
			if len(remaining) == 0 {
				rfu.Unload(pfu)
				if c.k.cfg.Sharing {
					c.passOn(pfu, nil)
				}
			}
			reg.resident = -1
		}
		reg.swapped = nil
	}
	rfu.TLB1.RemoveIf(func(k core.IDTuple, v uint32) bool { return k.PID == p.PID })
	rfu.TLB2.RemoveIf(func(k core.IDTuple, v uint32) bool { return k.PID == p.PID })
	if c.k.cfg.SoftDispatch {
		// Re-offer the freed hardware: flushing a software mapping makes
		// its process fault again and claim a PFU. Stateful instructions
		// are exempt — their alternative's state lives in process memory
		// and cannot migrate into CLB registers, so once soft they stay
		// soft (see core.Image.Stateful).
		rfu.TLB2.RemoveIf(func(k core.IDTuple, v uint32) bool {
			if reg := c.k.findRegistration(k.PID, k.CID); reg != nil {
				return !reg.Image.Stateful
			}
			return true
		})
	}
}
