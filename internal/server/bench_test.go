// Serving-layer benchmarks:
//
//	BenchmarkRankRequestCold vs. BenchmarkRankRequestWarm — a repeat
//	/v1/{graph}/rank request served from the rank cache must be ≥10×
//	faster than the cold solve (in practice the gap is 10³–10⁵×).
//
//	BenchmarkSweep20Sequential vs. BenchmarkSweep20Batch — a 20-point
//	p-sweep as one /v1/{graph}/rank/batch request (one snapshot, one CSR,
//	the shared job workers) must measurably beat 20 sequential cold
//	/v1/{graph}/rank round trips.
//
//	BenchmarkCorrelateWarm — a warm /v1/{graph}/correlate hit: the cached
//	scores, correlated by Spearman's ρ against the significance and degree
//	vectors, which the hit ranks afresh.
//
//	BenchmarkMiddlewareRecord — the per-request observability overhead
//	(request-ID handling, trace context, telemetry record, status
//	recorder) around a no-op handler, run in parallel; its budget is <2%
//	of a warm request.
//
//	go test ./internal/server -bench='BenchmarkRankRequest|BenchmarkSweep20|BenchmarkPPRRequest|BenchmarkCorrelate|BenchmarkMiddleware'
//
// scripts/bench.sh runs exactly these and emits BENCH_serve.json for the
// perf trajectory across PRs.
package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"d2pr/internal/dataset"
	"d2pr/internal/jobs"
	"d2pr/internal/rankcache"
	"d2pr/internal/rankspec"
	"d2pr/internal/registry"
)

func benchHandler(b *testing.B) http.Handler {
	b.Helper()
	reg := registry.New()
	if err := reg.AddDataset(dataset.IMDBActorActor, dataset.Config{Scale: 0.5, Seed: 7}); err != nil {
		b.Fatal(err)
	}
	s, err := NewMulti(reg, Config{CacheSize: 4})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	// Force the lazy graph load outside the timed region.
	warm := httptest.NewRequest("GET", "/v1/imdb-actor-actor/info", nil)
	h.ServeHTTP(httptest.NewRecorder(), warm)
	return h
}

// BenchmarkRankRequestCold varies p every iteration so each request misses
// the cache and pays the full transition build + power iteration.
func BenchmarkRankRequestCold(b *testing.B) {
	h := benchHandler(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := fmt.Sprintf("/v1/imdb-actor-actor/topk?k=10&p=%g", 0.25+float64(i)*1e-9)
		req := httptest.NewRequest("GET", url, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// sweepPs returns 20 distinct de-coupling weights, offset per benchmark
// iteration so every configuration misses the cache and pays a full solve.
func sweepPs(iter int) []float64 {
	ps := make([]float64, 20)
	for i := range ps {
		ps[i] = 0.05*float64(i) + float64(iter)*1e-9
	}
	return ps
}

// BenchmarkSweep20Sequential runs a 20-point p-sweep the pre-jobs way: 20
// sequential /v1/{graph}/rank round trips, each resolving the graph and
// solving cold.
func BenchmarkSweep20Sequential(b *testing.B) {
	h := benchHandler(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range sweepPs(i) {
			url := fmt.Sprintf("/v1/imdb-actor-actor/rank?top=10&p=%g", p)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			if rec.Code != 200 {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
}

// BenchmarkSweep20Batch runs the same sweep as one /rank/batch request: one
// registry snapshot, one CSR, configurations solved concurrently on the
// shared job workers.
func BenchmarkSweep20Batch(b *testing.B) {
	h := benchHandler(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := make([]string, 0, 20)
		for _, p := range sweepPs(i) {
			parts = append(parts, fmt.Sprintf("%g", p))
		}
		body := fmt.Sprintf(`{"ps": [%s], "top_k": 10}`, strings.Join(parts, ","))
		req := httptest.NewRequest("POST", "/v1/imdb-actor-actor/rank/batch", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkSweep20BatchSerial runs the batch execution path on a one-worker
// job manager, separating it from the concurrency win the default pool adds
// on multi-core hosts. Every configuration solves through the same
// Spec.ComputeStats path as a /rank request, so against
// BenchmarkSweep20Sequential the difference is the per-request HTTP and
// handler work one batch saves.
func BenchmarkSweep20BatchSerial(b *testing.B) {
	reg := registry.New()
	if err := reg.AddDataset(dataset.IMDBActorActor, dataset.Config{Scale: 0.5, Seed: 7}); err != nil {
		b.Fatal(err)
	}
	snap, err := reg.Get(dataset.IMDBActorActor)
	if err != nil {
		b.Fatal(err)
	}
	m, err := jobs.New(jobs.Options{Workers: 1, Resolve: reg.Get, Cache: rankcache.NewLRU[rankspec.Ranking](4)})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close(context.Background())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw := jobs.SweepSpec{Graph: snap.Name, Ps: sweepPs(i), TopK: 10}
		results := m.RunSync(context.Background(), snap, sw)
		for _, row := range results {
			if row.Error != "" {
				b.Fatal(row.Error)
			}
		}
	}
}

// BenchmarkRankRequestWarm repeats one configuration; after the first
// request every iteration is a cache hit plus top-k extraction.
func BenchmarkRankRequestWarm(b *testing.B) {
	h := benchHandler(b)
	req := httptest.NewRequest("GET", "/v1/imdb-actor-actor/topk?k=10&p=0.25", nil)
	h.ServeHTTP(httptest.NewRecorder(), req) // prime the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/imdb-actor-actor/topk?k=10&p=0.25", nil))
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkPPRRequestWarm repeats one personalized query; after the first
// request every iteration is a PPR-cache hit.
func BenchmarkPPRRequestWarm(b *testing.B) {
	h := benchHandler(b)
	req := httptest.NewRequest("GET", "/v1/imdb-actor-actor/ppr?seed=0&k=10", nil)
	h.ServeHTTP(httptest.NewRecorder(), req) // prime the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/imdb-actor-actor/ppr?seed=0&k=10", nil))
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkCorrelateWarm repeats one /correlate configuration; after the
// first request every iteration is a rank-cache hit plus the two Spearman
// correlations.
func BenchmarkCorrelateWarm(b *testing.B) {
	h := benchHandler(b)
	const url = "/v1/imdb-actor-actor/correlate?p=0.5"
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", url, nil)) // prime the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 || rec.Header().Get(cacheHeader) != "hit" {
			b.Fatalf("status %d, X-Cache %q: %s", rec.Code, rec.Header().Get(cacheHeader), rec.Body.String())
		}
	}
}

// BenchmarkMiddlewareRecord isolates the observability wrapper: instrument()
// around a no-op handler, driven from all cores at once. This is the per-
// request cost of request-ID validation, the trace context, the status
// recorder, and the lock-free telemetry record (logging disabled, as under
// -quiet). Histogram and counter updates are atomics, so throughput should
// scale with cores rather than serialize on a registry lock.
func BenchmarkMiddlewareRecord(b *testing.B) {
	reg := registry.New()
	if err := reg.AddDataset(dataset.IMDBActorActor, dataset.Config{Scale: 0.1, Seed: 7}); err != nil {
		b.Fatal(err)
	}
	s, err := NewMulti(reg, Config{})
	if err != nil {
		b.Fatal(err)
	}
	h := s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := httptest.NewRequest("GET", "/bench", nil)
		req.Header.Set("X-Request-ID", "bench-fixed-id")
		for pb.Next() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
		}
	})
}
