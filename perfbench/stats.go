package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer, and the value rests on a handful of ops.
const minBeyond = 10

// errTooFewSamples reports a percentile the sample cannot support.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// nearestRank returns the nearest-rank pct-th percentile of xs: the
// smallest sample such that at least pct% of the sample is at or below
// it. It refuses when fewer than minBeyond samples lie beyond that rank.
func nearestRank(xs []float64, pct int) (float64, error) {
	if len(xs) == 0 || pct <= 0 || pct > 100 {
		return 0, fmt.Errorf("percentile p%d of %d samples: %w", pct, len(xs), errTooFewSamples)
	}
	rank := (pct*len(xs) + 99) / 100 // ceil(pct/100 · n), 1-based
	if len(xs)-rank < minBeyond {
		return 0, fmt.Errorf("percentile p%d of %d samples leaves %d beyond it, need %d: %w",
			pct, len(xs), len(xs)-rank, minBeyond, errTooFewSamples)
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return sorted[rank-1], nil
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// digester folds op results, in op order, into one output digest: the
// SHA-256 of each result's JSON, length-prefixed so no two sequences of
// results can collide by concatenation.
type digester struct {
	h hash.Hash
	n int
}

func newDigester() *digester { return &digester{h: sha256.New()} }

// add folds one op's result (a *protean.Result or *protean.FleetResult,
// rendered through its MarshalJSON) into the digest.
func (d *digester) add(result any) error {
	b, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("digest op %d: %w", d.n, err)
	}
	fmt.Fprintf(d.h, "%d:", len(b))
	d.h.Write(b)
	d.n++
	return nil
}

// sum returns the hex digest of everything folded so far.
func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// resultDigest is the digest of a single result.
func resultDigest(result any) (string, error) {
	d := newDigester()
	if err := d.add(result); err != nil {
		return "", err
	}
	return d.sum(), nil
}
