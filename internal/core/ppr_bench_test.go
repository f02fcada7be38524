package core

import (
	"testing"
)

// BenchmarkPPRColdSeed measures one cold per-seed forward-push solve on the
// 30k-node skewed bench graph at the serving default ε — the cost the PPR
// cache's admission layer is amortizing away for hot seeds. Seeds rotate so
// no push locality carries over between iterations; only the engine pool
// scratch is warm, as it is in a serving process. The warm counterpart
// (BenchmarkPPRWarmSeed, internal/rankcache) must be ≥100× faster.
func BenchmarkPPRColdSeed(b *testing.B) {
	g := benchGraph(b)
	e := EngineFor(g)
	tr := Uniform(g)
	if _, err := e.SolvePPR(tr, 0, ForwardPushOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int32(i*7919) % int32(g.NumNodes())
		if seed < 0 {
			seed = -seed
		}
		if _, err := e.SolvePPR(tr, seed, ForwardPushOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
