package core

import (
	"protean/internal/fabric"
	"protean/internal/memo"
)

// programCache is the process-wide compiled-program cache, keyed by the
// content hash of the static bitstream — the same ConfigKey the cluster
// dispatcher uses as its placement-affinity key (Image.Key). Compiled
// programs are immutable after Compile, so one program can back every
// image, session and sweep cell that carries the same bitstream: the
// expensive decode + validate + compile happens once per distinct circuit
// per process, and every subsequent load anywhere is an instance
// stamp-out.
var programCache memo.Cache[ConfigKey, *fabric.Compiled]

// sharedProgram decodes, validates and compiles a static bitstream whose
// hash is key, memoizing the result process-wide. Identical bitstreams —
// the same circuit registered by many processes, sessions or experiment
// sweep cells — share a single compiled program. The returned program is
// read-only; stamp instances from it with NewInstance. NewBitstreamImage
// reuses key as the image's ConfigKey, so the 54 KB bitstream is hashed
// once.
func sharedProgram(key ConfigKey, bits []byte) (*fabric.Compiled, error) {
	return programCache.Do(key, func() (*fabric.Compiled, error) {
		cfg, err := fabric.Decode(bits)
		if err != nil {
			return nil, err
		}
		return fabric.Compile(cfg)
	})
}

// ProgramCacheStats reads the process-wide compiled-program cache's
// traffic counters, for host-side metrics. The values depend on which
// goroutine won each build race — host observability, never part of a
// deterministic snapshot.
func ProgramCacheStats() memo.CacheStats { return programCache.Stats() }
