// Benchmarks backing the serving-layer acceptance criteria: a warm-cache
// repeat of a rank request must be orders of magnitude (≥10×) faster than
// the cold power-iteration solve it memoizes, and a warm personalized seed
// must beat its cold forward push by ≥100×.
//
//	go test ./internal/rankcache -bench=. -benchmem
package rankcache_test

import (
	"context"
	"fmt"
	"testing"

	"d2pr/internal/core"
	"d2pr/internal/dataset"
	"d2pr/internal/rankcache"
	"d2pr/internal/rankspec"
)

// coldSolve is the computation the cache fronts in the serving layer: a full
// blended-transition build plus power-iteration solve, on an engine built
// beforehand as a snapshot's is.
func coldSolve(b *testing.B) ([]float64, rankcache.ComputeFunc[[]float64]) {
	b.Helper()
	d, err := dataset.GraphByName(dataset.Config{Scale: 0.5, Seed: 7}, dataset.IMDBActorActor)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Weighted
	e := core.NewEngine(g)
	compute := func(context.Context) ([]float64, error) {
		t, err := core.Blended(g, 0.5, 0)
		if err != nil {
			return nil, err
		}
		res, err := e.Solve(t, core.Options{})
		if err != nil {
			return nil, err
		}
		return res.Scores, nil
	}
	scores, err := compute(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return scores, compute
}

// BenchmarkColdSolve times the uncached path: every iteration pays the full
// transition build + solve.
func BenchmarkColdSolve(b *testing.B) {
	_, compute := coldSolve(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compute(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmCacheHit times the cached path for the identical
// configuration: one lock + map lookup + LRU bump. Compare against
// BenchmarkColdSolve — the ratio is the serving-layer speedup for repeat
// /v1/{graph}/rank requests (≥10× required, typically ≥10⁴×).
func BenchmarkWarmCacheHit(b *testing.B) {
	_, compute := coldSolve(b)
	c := rankcache.NewLRU[[]float64](4)
	spec := rankspec.New("imdb-actor-actor")
	spec.P = 0.5
	key := spec.CacheKey()
	if _, _, err := c.Get(context.Background(), key, compute); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Get(context.Background(), key, compute); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := c.Stats(); st.Misses != 1 {
		b.Fatalf("benchmark accidentally measured %d cold solves", st.Misses)
	}
}

// benchEntries mirrors a top-k serving payload (k=100).
func benchEntries(seed int) []rankspec.PPRRow {
	out := make([]rankspec.PPRRow, 100)
	for i := range out {
		out[i] = rankspec.PPRRow{Node: int32(seed + i), Score: 1 / float64(i+1)}
	}
	return out
}

// BenchmarkPPRWarmSeed measures serving a resident seed from the admitting
// cache — the warm counterpart of BenchmarkPPRColdSeed (internal/core),
// which it must beat by ≥100×. The Get itself allocates nothing; the value
// is the shared immutable []PPRRow, so the whole warm path is a lock, a
// hash, a sketch touch, and an LRU bump.
func BenchmarkPPRWarmSeed(b *testing.B) {
	c := rankcache.NewAdmitting[[]rankspec.PPRRow](1024)
	keys := make([]rankcache.Key, 64)
	for i := range keys {
		keys[i] = rankcache.Key(fmt.Sprintf("g/ppr/seed=%d/eps=1e-07/k=100", i))
		seed := i
		if _, _, err := c.Get(context.Background(), keys[i], func(context.Context) ([]rankspec.PPRRow, error) { return benchEntries(seed), nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val, cached, err := c.Get(context.Background(), keys[i%len(keys)], func(context.Context) ([]rankspec.PPRRow, error) {
			return nil, fmt.Errorf("warm bench must not compute")
		})
		if err != nil || !cached || len(val) != 100 {
			b.Fatalf("val=%d cached=%v err=%v", len(val), cached, err)
		}
	}
}

// BenchmarkPPRCacheAdmission measures the full miss path under a heavy-tailed
// seed stream: a small hot set that must stay resident plus a majority of
// one-off seeds exercising the sketch-vs-victim admission decision on every
// insert attempt.
func BenchmarkPPRCacheAdmission(b *testing.B) {
	c := rankcache.NewAdmitting[[]rankspec.PPRRow](256)
	hot := make([]rankcache.Key, 32)
	for i := range hot {
		hot[i] = rankcache.Key(fmt.Sprintf("hot-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var key rankcache.Key
		if i%4 != 0 {
			key = hot[i%len(hot)]
		} else {
			key = rankcache.Key(fmt.Sprintf("cold-%d", i))
		}
		seed := i
		if _, _, err := c.Get(context.Background(), key, func(context.Context) ([]rankspec.PPRRow, error) { return benchEntries(seed), nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := c.Stats(); st.Rejected == 0 && b.N > 10000 {
		b.Fatalf("admission idle under one-off flood: %+v", st)
	}
}
