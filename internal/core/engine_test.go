package core

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"d2pr/internal/graph"
)

// skewedGraph builds a directed power-law-ish graph: every node i emits
// ~avgDeg arcs whose targets are biased hard toward low ids (t = ⌊i·r⁴⌋ for
// uniform r), so in-degree concentrates on a contiguous low-id hub prefix —
// the paper's citation/affiliation shape, where a few hub rows carry most of
// the sweep's arcs.
func powerLawGraph(t testing.TB, n, avgDeg int, seed int64) *graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(graph.Directed).Duplicates(graph.DupAllow).EnsureNodes(n)
	for i := 1; i < n; i++ {
		for d := 0; d < avgDeg; d++ {
			x := r.Float64()
			x *= x
			x *= x // r⁴: heavy bias toward 0
			tgt := int32(float64(i) * x)
			if tgt == int32(i) {
				tgt = 0
			}
			b.AddEdge(int32(i), tgt)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestSerialParallelAgreePowerLaw: the blocked parallel sweep must agree
// with the sequential sweep on hub-heavy graphs for every worker count —
// including counts exceeding the block and node counts. Parallelization is
// over destinations, so each node's accumulation order is identical and
// agreement is to the bit; the asserted tolerance is 1e-12.
func TestSerialParallelAgreePowerLaw(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		p    float64
		beta float64
	}{
		{"skewed-d2pr", powerLawGraph(t, 3000, 6, 1), 1.5, 0},
		{"skewed-uniform", powerLawGraph(t, 3000, 6, 2), 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := Blended(tc.g, tc.p, tc.beta)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := Solve(tr, Options{Tol: 1e-13})
			if err != nil {
				t.Fatal(err)
			}
			n := tc.g.NumNodes()
			for _, workers := range []int{2, 3, 4, 7, 16, 61, n + 5, 4 * n} {
				par, err := Solve(tr, Options{Tol: 1e-13, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if par.Iterations != seq.Iterations {
					t.Errorf("workers=%d: %d iterations, sequential took %d",
						workers, par.Iterations, seq.Iterations)
				}
				if d := maxAbsDiff(seq.Scores, par.Scores); d > 1e-12 {
					t.Errorf("workers=%d: max |Δ| = %g > 1e-12", workers, d)
				}
			}
		})
	}
}

// TestParallelSweepEmptyRanges: an in-star (everyone → node 0) puts almost
// every arc into one destination row and yields fewer blocks than workers,
// so most workers find no block to grab — they must be handled, not crash
// or skew results.
func TestParallelSweepEmptyRanges(t *testing.T) {
	const n = 120
	b := graph.NewBuilder(graph.Directed).EnsureNodes(n)
	for i := int32(1); i < n; i++ {
		b.AddEdge(i, 0)
	}
	g := b.MustBuild()

	tr := DegreeDecoupled(g, 0.7)
	seq, err := Solve(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8, 32, 200} {
		par, err := Solve(tr, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d := maxAbsDiff(seq.Scores, par.Scores); d > 1e-12 {
			t.Errorf("workers=%d: max |Δ| = %g", workers, d)
		}
	}
}

// TestUniformImplicitMatchesExplicit: the implicit 1/outdeg path must
// reproduce the explicit per-arc uniform transition bit for bit (same
// multiplications in the same order).
func TestUniformImplicitMatchesExplicit(t *testing.T) {
	g := powerLawGraph(t, 1500, 5, 4)
	explicit := &Transition{g: g, probs: uniformProbs(g)} // forced explicit path
	implicit := Uniform(g)
	for _, workers := range []int{0, 4} {
		want, err := Solve(explicit, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(implicit, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != want.Iterations {
			t.Errorf("workers=%d: %d iterations vs %d", workers, got.Iterations, want.Iterations)
		}
		for i := range want.Scores {
			if got.Scores[i] != want.Scores[i] {
				t.Fatalf("workers=%d: score[%d] = %v, explicit %v", workers, i, got.Scores[i], want.Scores[i])
			}
		}
	}
}

// TestEngineForCaches: same graph → same engine; the MRU cache survives
// unrelated churn and a full wrap evicts cleanly.
func TestEngineForCaches(t *testing.T) {
	g := powerLawGraph(t, 50, 3, 5)
	e1 := EngineFor(g)
	if e2 := EngineFor(g); e2 != e1 {
		t.Error("EngineFor rebuilt the engine for a cached graph")
	}
	// Churn more graphs than the cache holds; EngineFor must keep working
	// (returning fresh engines) and the original graph simply rebuilds.
	for i := 0; i < engineCacheCap+4; i++ {
		h := powerLawGraph(t, 20, 2, int64(100+i))
		if EngineFor(h).Graph() != h {
			t.Fatal("engine bound to wrong graph")
		}
	}
	if EngineFor(g).Graph() != g {
		t.Error("rebuilt engine bound to wrong graph")
	}
}

// TestEngineSolveWrongGraph: an engine must reject transitions over a
// different graph instead of silently mixing topologies.
func TestEngineSolveWrongGraph(t *testing.T) {
	g1 := powerLawGraph(t, 30, 3, 6)
	g2 := powerLawGraph(t, 30, 3, 7)
	e := NewEngine(g1)
	if _, err := e.Solve(Uniform(g2), Options{}); err == nil {
		t.Error("want error for mismatched transition graph")
	}
}

// TestWarmUniformSolveAllocationFree: the acceptance criterion of the
// zero-rebuild engine — a warm solve of the uniform/p = 0 transition must
// perform no O(m) or O(n) allocations beyond the returned score vector.
// Counted allocations stay O(1) and allocated bytes stay within a small
// multiple of the score vector, far below the per-arc footprint.
func TestWarmUniformSolveAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool.Put drops one item in four at random, so the pool does not keep its buffers and the allocation budgets do not apply")
	}
	const n, avgDeg = 2000, 10
	g := powerLawGraph(t, n, avgDeg, 8)
	e := EngineFor(g)
	tr := Uniform(g)
	opts := Options{MaxIter: 8, Tol: 1e-300} // fixed work per solve
	solve := func() {
		if _, err := e.Solve(tr, opts); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm the engine pools
	solve()

	if allocs := testing.AllocsPerRun(20, solve); allocs > 8 {
		t.Errorf("warm uniform solve: %.1f allocs/run, want O(1) (≤ 8)", allocs)
	}

	// Byte-level check: TotalAlloc is cumulative, so GC cannot hide O(m)
	// garbage. Budget: the returned scores (n·8) plus slack for Result and
	// an occasional pool refill after a GC — still far under one per-arc
	// array (m·8).
	const runs = 40
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		solve()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	scoreBytes := float64(n * 8)
	arcBytes := float64(g.NumArcs() * 8)
	if perRun > 3*scoreBytes+8192 {
		t.Errorf("warm uniform solve allocates %.0f B/run, want ≤ ~%0.f (scores + slack)", perRun, 3*scoreBytes+8192)
	}
	if perRun > arcBytes/4 {
		t.Errorf("warm uniform solve allocates %.0f B/run — O(m) garbage? (m·8 = %.0f)", perRun, arcBytes)
	}
}

// TestWarmParallelSolveAllocations: the parallel path adds only the
// per-solve sweep descriptor and partition bounds — still O(workers), never
// O(n) or O(m).
func TestWarmParallelSolveAllocations(t *testing.T) {
	g := powerLawGraph(t, 2000, 10, 9)
	e := EngineFor(g)
	tr := Uniform(g)
	opts := Options{MaxIter: 8, Tol: 1e-300, Workers: 4}
	solve := func() {
		if _, err := e.Solve(tr, opts); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	solve()
	if allocs := testing.AllocsPerRun(20, solve); allocs > 16 {
		t.Errorf("warm parallel solve: %.1f allocs/run, want O(workers) (≤ 16)", allocs)
	}
}

// TestConcurrentEngineSolves exercises the shared worker pool and buffer
// pools from many goroutines over multiple engines. Run with -race.
func TestConcurrentEngineSolves(t *testing.T) {
	g1 := powerLawGraph(t, 800, 5, 10)
	g2 := powerLawGraph(t, 600, 4, 11)
	e1, e2 := EngineFor(g1), EngineFor(g2)
	want1, err := e1.Solve(Uniform(g1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want2, err := e2.Solve(DegreeDecoupled(g2, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, tr, want := e1, Uniform(g1), want1
			if i%2 == 1 {
				e, tr, want = e2, DegreeDecoupled(g2, 1), want2
			}
			res, err := e.Solve(tr, Options{Workers: 4})
			if err != nil {
				errs <- err
				return
			}
			if d := maxAbsDiff(res.Scores, want.Scores); d > 1e-12 {
				t.Errorf("concurrent solve diverged: max |Δ| = %g", d)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
