package protean

import (
	"fmt"
	"sort"
	"sync"

	"protean/internal/asm"
	"protean/internal/memo"
)

// Program is an assemblable guest program: ARM assembly source plus the
// circuit table its registration syscalls index. It is what a workload
// builder produces and what Session.SpawnProgram loads.
type Program struct {
	// Name labels the process; instances spawned from a registry workload
	// get "name#pid".
	Name string
	// Source is the ARM assembly, assembled at the process's region base.
	Source string
	// Images is the circuit table referenced by index from the
	// registration syscall (SWI 3).
	Images []*Image
	// Expected, when non-nil, is the exit code every instance must return;
	// Result.Err reports mismatches. The built-in workloads set it to
	// their Go-model checksum so every run doubles as a correctness test.
	Expected *uint32
}

// Workload is a named, spawnable application in the registry.
type Workload struct {
	// Name is the registry key, e.g. "alpha" or "twofish/baseline".
	Name string
	// BaseItems is the paper-scale work-unit count that Scale.Items
	// divides; 0 means the workload has no default and Session.Spawn
	// requires an explicit items count.
	BaseItems int
	// Build constructs the program for one instance. items is the
	// work-unit count; soft reports whether the session dispatches to
	// software alternatives under contention, so auto-mode workloads can
	// register them only when they will be used.
	//
	// Build must be deterministic in (items, soft): built programs are
	// cached process-wide and shared by every session that spawns the
	// same template, so identical workloads — repeated Spawns, parallel
	// sweep cells — compile their circuit images exactly once. A Build
	// that closes over mutable state must not mutate it.
	Build func(items int, soft bool) (Program, error)
}

// templateCache memoizes built workload programs process-wide, keyed by
// (workload, items, soft). Programs and their circuit images are immutable
// after Build, so one template — and therefore one compiled circuit
// program per image — backs every session, repeated Spawn and experiment
// sweep cell that requests it, instead of re-building (and for gate-level
// images re-placing and re-encoding) identical circuits per cell.
var templateCache memo.Cache[templateKey, Program]

type templateKey struct {
	workload string
	items    int
	soft     bool
}

// asmCache memoizes assembled programs by (source, origin). Processes
// spawn at deterministic region bases, so a sweep re-running one template
// across many sessions assembles each (template, base) pair once instead
// of once per spawn. Assembled programs are immutable, so sharing them is
// safe, and so is sharing their page images: the kernel maps a program's
// pages into machine RAM copy-on-write (asm.Program.Image).
var asmCache memo.Cache[asmKey, *asm.Program]

type asmKey struct {
	source string
	origin uint32
}

// assembleCached assembles source at origin through the process-wide
// cache.
func assembleCached(source string, origin uint32) (*asm.Program, error) {
	return asmCache.Do(asmKey{source: source, origin: origin}, func() (*asm.Program, error) {
		return asm.Assemble(source, origin)
	})
}

// buildTemplate returns the cached program for a workload template,
// building it on first use; every session that spawns the same template
// shares the stored program and its image pointers.
func buildTemplate(w Workload, items int, soft bool) (Program, error) {
	return templateCache.Do(templateKey{workload: w.Name, items: items, soft: soft},
		func() (Program, error) { return w.Build(items, soft) })
}

var registry = struct {
	sync.RWMutex
	m map[string]Workload
	// names mirrors the map's keys in sorted order, maintained at
	// registration time so Workloads never iterates the map (map order
	// is nondeterministic; the facade is a determinism-bound package).
	names []string
}{m: map[string]Workload{}}

// RegisterWorkload adds a named workload to the registry, making it
// spawnable by every Session. Registering an empty name, a nil builder or
// a duplicate name is an error.
func RegisterWorkload(w Workload) error {
	if w.Name == "" {
		return fmt.Errorf("protean: workload needs a name")
	}
	if w.Build == nil {
		return fmt.Errorf("protean: workload %q needs a Build function", w.Name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[w.Name]; dup {
		return fmt.Errorf("protean: workload %q already registered", w.Name)
	}
	registry.m[w.Name] = w
	i := sort.SearchStrings(registry.names, w.Name)
	registry.names = append(registry.names, "")
	copy(registry.names[i+1:], registry.names[i:])
	registry.names[i] = w.Name
	return nil
}

// mustRegister is RegisterWorkload for init-time built-ins.
func mustRegister(w Workload) {
	if err := RegisterWorkload(w); err != nil {
		panic(err)
	}
}

// Workloads lists every registered workload name, sorted.
func Workloads() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, len(registry.names))
	copy(names, registry.names)
	return names
}

// lookupWorkload resolves a registry name.
func lookupWorkload(name string) (Workload, bool) {
	registry.RLock()
	defer registry.RUnlock()
	w, ok := registry.m[name]
	return w, ok
}
