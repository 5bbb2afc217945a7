package core

import (
	"fmt"

	"protean/internal/fabric"
	"protean/internal/memo"
)

// lintCache memoizes configuration lint findings by ConfigKey, the same
// key the compiled-program cache uses: the decode + lint pass over a
// 54 KB bitstream runs once per distinct circuit per process, no matter
// how many sessions, sweep cells or cluster nodes build images from it.
var lintCache memo.Cache[ConfigKey, []string]

// Lint reports static-analysis findings for the image's loadable
// configuration — dead logic cones, constant LUTs, unused flip-flops,
// floating inputs (see fabric.LintConfig; combinational cycles never
// reach here because image construction rejects them). Findings are
// rendered as human-readable strings and cached process-wide by the
// image's ConfigKey. Images without a decodable configuration
// (behavioural and model images) report nothing: there is no netlist to
// analyse.
func (img *Image) Lint() []string {
	if img.lint == nil {
		return nil
	}
	return img.lint()
}

// lintBitstream decodes a static bitstream and lints its configuration,
// memoized by the bitstream's content key. Decode errors are impossible
// for bitstreams that already built an image, so they surface as a
// single finding rather than an error path.
func lintBitstream(key ConfigKey, bits []byte) []string {
	msgs, _ := lintCache.Do(key, func() ([]string, error) {
		cfg, err := fabric.Decode(bits)
		if err != nil {
			return []string{fmt.Sprintf("bitstream undecodable: %v", err)}, nil
		}
		r, err := fabric.LintConfig(cfg)
		if err != nil {
			return []string{fmt.Sprintf("configuration invalid: %v", err)}, nil
		}
		out := make([]string, 0, len(r.Diags))
		for _, d := range r.Diags {
			out = append(out, fmt.Sprintf("%s: %s", d.Kind, d.Msg))
		}
		return out, nil
	})
	return msgs
}
