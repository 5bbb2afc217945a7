package obs

import (
	"context"
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
)

// Task runs f with pprof labels {kind, name} attached, so host CPU
// profiles attribute samples to scenario structure (sweep cell, fleet
// worker chunk) instead of anonymous goroutines. When the process is
// collecting a runtime/trace (go test -trace, rtrace.Start), the call
// is additionally wrapped in a user region "kind:name"; with tracing
// off the region calls are no-ops, so the hook costs two label
// allocations per task and nothing on the modeled timeline.
func Task(ctx context.Context, kind, name string, f func()) {
	pprof.Do(ctx, pprof.Labels(kind, name), func(ctx context.Context) {
		if rtrace.IsEnabled() {
			defer rtrace.StartRegion(ctx, kind+":"+name).End()
		}
		f()
	})
}

// StartProfiles starts a CPU profile written to cpu and returns stop,
// which ends it and then writes an allocation profile to mem; an empty
// path skips that profile. The commands' -cpuprofile and -memprofile
// flags land here, so the Task labels above can be filtered with
// `go tool pprof -tagfocus`. Profiles sample the host and never touch
// simulation output.
func StartProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem == "" {
			return nil
		}
		f, err := os.Create(mem)
		if err != nil {
			return err
		}
		runtime.GC() // flush the allocation statistics up to now
		return errors.Join(pprof.Lookup("allocs").WriteTo(f, 0), f.Close())
	}, nil
}
