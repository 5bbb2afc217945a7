package protean_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"protean"
)

// FuzzLoadScenario fuzzes the scenario deserializer: arbitrary bytes
// must never panic or hang LoadScenario (validation builds workload
// templates, so the items cap is load-bearing here), and any spec it
// accepts must round-trip — marshal, reload, re-marshal to identical
// bytes. An accepted spec small enough to simulate quickly (smallSpec)
// also runs, and a fleet that completes must pass checkFleet; a run
// may still fail for reasons the spec states, such as an exhausted
// cycle budget. The committed corpus under testdata/fuzz/FuzzLoadScenario
// replays as plain subtests on every ordinary `go test` run.
func FuzzLoadScenario(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"nodes":[{}],"jobs":[{"workload":"echo","items":4}]}`))
	f.Add([]byte(`{"nodes":[{"count":2,"session":{"scale":100,"policy":"lru","lint_warnings":true}},` +
		`{"clock_scale":2,"store_slots":4,"session":{"scale":100,"pfus":2}}],` +
		`"jobs":[{"workload":"alpha","items":64},{"workload":"twofish","items":8,"count":3}],` +
		`"placement":{"policy":"affinity"}}`))
	f.Add([]byte(`{"nodes":[{"session":{"scale":100}}],` +
		`"jobs":[{"workload":"echo","items":16}],` +
		`"arrivals":{"process":"poisson","mean_gap":5000},` +
		`"admission":{"bound":2,"policy":"defer"},` +
		`"placement":{"policy":"wa","weight":7},"seed":3,"workers":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := protean.LoadScenario(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		saved, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := protean.LoadScenario(saved)
		if err != nil {
			t.Fatalf("saved spec does not reload: %v\nspec: %s", err, saved)
		}
		resaved, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("reloaded spec does not marshal: %v", err)
		}
		if !bytes.Equal(saved, resaved) {
			t.Fatalf("round trip unstable:\n first: %s\nsecond: %s", saved, resaved)
		}
		if !smallSpec(sc) {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		fr, err := protean.RunScenario(ctx, sc)
		if err != nil {
			return
		}
		if err := checkFleet(fr); err != nil {
			t.Fatalf("%v\nspec: %s", err, saved)
		}
	})
}

// smallSpec reports whether sc is cheap to simulate: every job sets
// 1–64 items and at most 4 instances, the spec expands to at most 16
// jobs on at most 16 nodes, and it asks for at most 4 workers. PFU
// counts and TLB1 sizes need no filter: LoadScenario holds them to
// MaxPFUs and MaxTLB1Entries.
func smallSpec(sc protean.Scenario) bool {
	if sc.Workers > 4 {
		return false
	}
	nodes, jobs := 0, 0
	for _, ns := range sc.Nodes {
		nodes += max(ns.Count, 1)
	}
	for _, js := range sc.Jobs {
		if js.Items < 1 || js.Items > 64 || js.Instances > 4 {
			return false
		}
		jobs += max(js.Count, 1)
	}
	return nodes <= 16 && jobs <= 16
}
