package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

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

// withWeights returns a weighted copy of the directed graph g, with the same
// arcs in the same order and the k-th out-arc of every node weighted
// 0.5 + k mod 4.
func withWeights(t testing.TB, g *graph.Graph) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(graph.Directed).Weighted().Duplicates(graph.DupAllow).EnsureNodes(g.NumNodes())
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		for k, v := range g.Neighbors(u) {
			b.AddWeightedEdge(u, v, 0.5+float64(k%4))
		}
	}
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// requireHelpers fails t unless e has at least two sweep blocks, so that a
// solve on more than one worker starts at least one helper.
func requireHelpers(t testing.TB, e *Engine) {
	t.Helper()
	if nb := len(e.blocks) - 1; nb < 2 {
		t.Fatalf("the test graph has %d sweep block(s); its solves would start no helper", nb)
	}
}

// solveWorkers solves t on its graph's cached engine with the given number
// of sweep workers.
func solveWorkers(t *Transition, opts Options, workers int) (*Result, error) {
	return EngineFor(t.g).solve(context.Background(), t, opts, workers)
}

// pullOrder places fwd, one value per forward CSR arc of e's graph, at the
// arcs' pull positions. It walks sources in original id order, as the
// engine's build does, so each row's arcs land in source-scan order, and it
// panics if a position's source disagrees with the engine's pullSources.
func pullOrder(e *Engine, fwd []float64) []float64 {
	g := e.g
	out := make([]float64, len(fwd))
	cursor := append([]int64(nil), e.pullOffsets[:e.n]...)
	relabel := func(u int32) int32 {
		if e.permOf == nil {
			return u
		}
		return e.permOf[u]
	}
	for u := int32(0); int(u) < e.n; u++ {
		lo, hi := g.ArcRange(u)
		for k := lo; k < hi; k++ {
			pv := relabel(g.ArcTarget(k))
			pos := cursor[pv]
			cursor[pv]++
			if e.pullSources[pos] != relabel(u) {
				panic("pullOrder: arc placement disagrees with the engine's pull topology")
			}
			out[pos] = fwd[k]
		}
	}
	return out
}

// solveArcs solves the per-arc transition whose forward-order probabilities
// are fwd on e, with the given number of sweep workers: the power solver on
// fwd placed in pull order.
func solveArcs(e *Engine, fwd []float64, opts Options, workers int) (*Result, error) {
	opts, err := opts.withDefaults(e.n)
	if err != nil {
		return nil, err
	}
	return powerSolve(context.Background(), e, pullOrder(e, fwd), nil, nil, opts, workers)
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

// TestSerialParallelAgreePowerLaw: a solve on several workers must agree
// with a one-worker solve on hub-heavy graphs for every worker count —
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
			seq, err := solveWorkers(tr, Options{Tol: 1e-13}, 1)
			if err != nil {
				t.Fatal(err)
			}
			n := tc.g.NumNodes()
			for _, workers := range []int{2, 3, 4, 7, 16, 61, n + 5, 4 * n} {
				par, err := solveWorkers(tr, Options{Tol: 1e-13}, workers)
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

// TestParallelSweepEmptyRanges checks the clamp of the worker count to the
// block count. An in-star (everyone → node 0) puts almost every arc into
// one destination row and has one sweep block, so every requested count
// from 4 to 200 must run as one worker, with no helper left waiting for a
// block, and return the one-worker answer.
func TestParallelSweepEmptyRanges(t *testing.T) {
	const n = 120
	b := graph.NewBuilder(graph.Directed).EnsureNodes(n)
	for i := int32(1); i < n; i++ {
		b.AddEdge(i, 0)
	}
	g := b.MustBuild()

	tr := DegreeDecoupled(g, 0.7)
	seq, err := solveWorkers(tr, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8, 32, 200} {
		par, err := solveWorkers(tr, Options{}, workers)
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
	explicit := uniformProbs(g) // forced explicit path
	implicit := Uniform(g)
	for _, workers := range []int{1, 4} {
		want, err := solveArcs(EngineFor(g), explicit, Options{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solveWorkers(implicit, Options{}, workers)
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
		if _, err := e.solve(context.Background(), tr, opts, 1); err != nil {
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

// TestWarmParallelSolveAllocations: more workers add only the per-solve
// token channel and helper goroutines — O(workers), never O(n) or O(m).
func TestWarmParallelSolveAllocations(t *testing.T) {
	g := powerLawGraph(t, 2000, 10, 9)
	e := EngineFor(g)
	tr := Uniform(g)
	opts := Options{MaxIter: 8, Tol: 1e-300}
	solve := func() {
		if _, err := e.solve(context.Background(), tr, opts, 4); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	solve()
	if allocs := testing.AllocsPerRun(20, solve); allocs > 16 {
		t.Errorf("warm parallel solve: %.1f allocs/run, want O(workers) (≤ 16)", allocs)
	}
}

// TestConcurrentEngineSolves runs parallel solves, each with its own sweep
// helpers, against shared buffer pools from many goroutines over multiple
// engines. Run with -race.
func TestConcurrentEngineSolves(t *testing.T) {
	g1 := powerLawGraph(t, 3000, 6, 10)
	g2 := powerLawGraph(t, 2500, 6, 11)
	e1, e2 := EngineFor(g1), EngineFor(g2)
	requireHelpers(t, e1)
	requireHelpers(t, e2)
	want1, err := e1.solve(context.Background(), Uniform(g1), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := e2.solve(context.Background(), DegreeDecoupled(g2, 1), Options{}, 1)
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
			res, err := e.solve(context.Background(), tr, Options{}, 4)
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

// TestSolveLeavesNoGoroutine: a solve's sweep helpers exit by the time it
// returns, whether it ran to its iteration cap or was cancelled mid-solve,
// so no goroutine outlives the solve that started it.
func TestSolveLeavesNoGoroutine(t *testing.T) {
	g := powerLawGraph(t, 20000, 5, 12)
	e := EngineFor(g)
	if nb := len(e.blocks) - 1; nb < 4 {
		t.Fatalf("the graph has %d sweep block(s), want ≥ 4", nb)
	}
	tr := DegreeDecoupled(g, 1)
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"finished", context.Background()}, {"cancelled", errAfter(3)}} {
		base := runtime.NumGoroutine()
		_, err := e.solve(c.ctx, tr, Options{MaxIter: 5, Tol: 1e-300}, 4)
		if c.name == "cancelled" {
			requireCancelErr(t, err, "after 2/5 iterations")
		} else if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s solve: %d goroutines 1 s after it returned, %d before it started",
					c.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestArcFlowMatchesForwardView: for every per-arc kind, the pull-order flow
// a solve runs on is the transition's forward-order view placed by pull
// position, bit for bit, on reordered and identity engines. The kinds are
// blends on unweighted and weighted graphs, weighted connection strength,
// extreme-p D2PR, and a blend whose sources are partly shifted; the graphs
// include a directed one with dangling nodes.
func TestArcFlowMatchesForwardView(t *testing.T) {
	for name, g := range oracleGraphs(t) {
		var trs []*Transition
		add := func(p, beta float64) {
			tr, err := Blended(g, p, beta)
			if err != nil {
				t.Fatal(err)
			}
			trs = append(trs, tr)
		}
		for _, pb := range [][2]float64{{-1.5, 0.25}, {2, 0.5}, {-400, 0.5}, {-400, 0}, {400, 0}, {1, 1}} {
			add(pb[0], pb[1])
		}
		want := map[transitionKind]bool{kindBlend: true, kindShifted: true}
		if g.Weighted() {
			want[kindConnection] = true
		}
		reordered := NewEngine(g)
		if reordered.permOf == nil {
			t.Fatalf("%s: the reordered engine has the identity order", name)
		}
		for _, e := range []*Engine{reordered, newEngineIdentity(g)} {
			for _, tr := range trs {
				if tr.kind == kindUniform || tr.kind == kindFactored {
					continue
				}
				delete(want, tr.kind)
				f := e.flowOf(tr)
				ref := pullOrder(e, tr.arcProbs())
				for pos := range ref {
					if math.Float64bits(f.probs[pos]) != math.Float64bits(ref[pos]) {
						t.Fatalf("%s kind %d p=%g β=%g reordered=%v: pull position %d = %v, forward view %v",
							name, tr.kind, tr.p, tr.beta, e.permOf != nil, pos, f.probs[pos], ref[pos])
					}
				}
				f.release(e)
			}
		}
		if len(want) != 0 {
			t.Fatalf("%s: kinds %v not covered", name, want)
		}
	}
}

// TestPerArcSolveAllocatesNoArcArray: a warm per-arc miss, transition
// construction included, builds its probabilities into the engine's pooled
// pull-order buffer, and a β = 1 solve on a weighted graph reads the
// engine's connection table, so neither allocates an O(arcs) array. Each
// must allocate less than one float64 per arc. The GC is off and GOMAXPROCS
// is 1 while measuring, so that the pools keep their buffers and the one
// goroutine always finds them in its P's slots.
func TestPerArcSolveAllocatesNoArcArray(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool.Put drops one item in four at random, so a warm solve can refill a pool")
	}
	const n, avgDeg = 3000, 10
	g := powerLawGraph(t, n, avgDeg, 13)
	weighted := withWeights(t, g)
	if m := g.NumArcs(); m < 8*n {
		t.Fatalf("average degree %.1f, want ≥ 8", float64(m)/n)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opts := Options{MaxIter: 5, Tol: 1e-300}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		beta float64
	}{{"blend β=0.5", g, 0.5}, {"weighted blend β=0.5", weighted, 0.5}, {"weighted β=1", weighted, 1}} {
		e := NewEngine(c.g)
		solve := func() {
			tr, err := Blended(c.g, 1.5, c.beta)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.solve(context.Background(), tr, opts, 1); err != nil {
				t.Fatal(err)
			}
		}
		solve() // warm the pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		solve()
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*c.g.NumArcs()); got >= limit {
			t.Errorf("%s: a warm solve allocated %d B, want < 8·arcs = %d B", c.name, got, limit)
		}
	}
}

// TestEngineStatsBytes: an engine reports the bytes of its retained slices.
// An unweighted power-law engine holds 4 B per arc (pullSources) and at most
// 40 B per node (offsets, reorder tables, 1/outdeg tables, dangling list,
// block bounds); a weighted one adds its 8 B-per-arc connection table, and
// Connection's forward-order array another 8 B per arc once built.
func TestEngineStatsBytes(t *testing.T) {
	g := powerLawGraph(t, 3000, 6, 14)
	n, m := int64(g.NumNodes()), int64(g.NumArcs())
	e := NewEngine(g)
	if e.permOf == nil {
		t.Fatal("the engine has the identity order")
	}
	got := e.Stats().Bytes
	if limit := 4*m + 40*(n+1); got <= 4*m || got > limit {
		t.Errorf("unweighted engine reports %d B, want in (4·arcs, 4·arcs + 40·(n+1)] = (%d, %d]", got, 4*m, limit)
	}
	e.Connection() // the uniform transition: nothing to build
	if after := e.Stats().Bytes; after != got {
		t.Errorf("Connection on an unweighted graph moved Bytes from %d to %d", got, after)
	}

	weighted := withWeights(t, g)
	we := NewEngine(weighted)
	if wb := we.Stats().Bytes; wb != got+8*m {
		t.Errorf("weighted engine reports %d B, want the unweighted %d + 8·arcs = %d", wb, got, got+8*m)
	}
	we.Connection()
	if wb := we.Stats().Bytes; wb != got+16*m {
		t.Errorf("after Connection the weighted engine reports %d B, want %d + 16·arcs = %d", wb, got, got+16*m)
	}
}
