package core

import (
	"protean/internal/fabric"
	"protean/internal/memo"
)

// timingCache memoizes static timing reports by ConfigKey, alongside the
// lint and compiled-program caches: the decode + levelize + path trace
// over a bitstream runs once per distinct circuit per process.
var timingCache memo.Cache[ConfigKey, *fabric.TimingReport]

// Timing returns the static timing report for the image's loadable
// configuration — per-endpoint critical paths, slack and the LUT depth
// histogram under the fabric's unit-delay model (see fabric.Timing).
// Reports are cached process-wide by the image's ConfigKey; callers
// must treat them as read-only. Images without a decodable
// configuration (behavioural and model images) have no static delay
// and return nil.
func (img *Image) Timing() *fabric.TimingReport {
	if img.timing == nil {
		return nil
	}
	return img.timing()
}

// timingBitstream decodes a static bitstream and times its
// configuration, memoized by the bitstream's content key. As with
// lintBitstream, decode or validation failures cannot happen for a
// bitstream that already built an image, so they collapse to a nil
// report rather than an error path.
func timingBitstream(key ConfigKey, bits []byte) *fabric.TimingReport {
	rep, _ := timingCache.Do(key, func() (*fabric.TimingReport, error) {
		cfg, err := fabric.Decode(bits)
		if err != nil {
			return nil, nil
		}
		r, err := fabric.Timing(cfg)
		if err != nil {
			return nil, nil
		}
		return r, nil
	})
	return rep
}
