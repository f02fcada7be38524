package core

import (
	"context"
	"testing"

	"d2pr/internal/graph"
)

// The BenchmarkCore* benches feed scripts/bench.sh → BENCH_core.json: the
// perf trajectory of the solver hot path across PRs. They run on a skewed
// synthetic power-law graph (hub in-degree concentrated on low ids — the
// paper's citation/affiliation shape) where the engine's wins are largest:
//
//   - CoreSolveCold vs CoreSolveWarm: the cost of re-transposing the graph
//     on every solve (the seed behavior) vs reusing the cached engine.
//   - CoreSolveWarmUniform: the implicit 1/outdeg path — no per-arc
//     probability array is built or read.
//   - CoreSolveWarmBlended: a β = 0.5 blend, the per-arc path, whose solve
//     builds its pull-order probabilities before it sweeps them.
//   - CoreSolveWarmNoReorder: the identity-order ablation of the locality
//     relabeling (same kernel, builder's node order).
//   - CoreSweepSequential vs CoreSweepBlocked4/8: the cache-blocked
//     schedule serially and with 4 and 8 workers.
//   - CoreConvergePower: a full run to a real tolerance.
//
// Every warm bench also reports ns_per_arc — the tentpole metric the
// CI bench-regression guard tracks (scripts/bench_guard.sh). Every bench but
// the CoreSweepBlocked pair runs one sweep worker, so the guard compares the
// serial kernel, whatever the host's GOMAXPROCS.

const (
	benchNodes  = 30000
	benchAvgDeg = 8
)

var benchG *graph.Graph

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	if benchG == nil {
		benchG = powerLawGraph(b, benchNodes, benchAvgDeg, 42)
	}
	return benchG
}

// benchOpts pins the iteration count so every variant does identical work.
var benchOpts = Options{Alpha: DefaultAlpha, MaxIter: 20, Tol: 1e-300}

// reportNsPerArc converts the measured ns/op into ns per arc-traversal so
// BENCH_core.json tracks kernel throughput independent of graph size and the
// pinned iteration count. Call after the timed loop (ResetTimer would drop
// metrics reported before it).
func reportNsPerArc(b *testing.B, arcs, itersPerOp int) {
	if b.N == 0 {
		return
	}
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perOp/float64(arcs)/float64(itersPerOp), "ns_per_arc")
}

// BenchmarkCoreSolveCold measures the seed behavior: every solve rebuilds
// the pull topology (transpose + reordering + block layout) before iterating.
func BenchmarkCoreSolveCold(b *testing.B) {
	g := benchGraph(b)
	tr := DegreeDecoupled(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(g).solve(context.Background(), tr, benchOpts, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumArcs()), "arcs")
}

// BenchmarkCoreSolveWarm measures the cached-engine path: the transpose is
// reused and the pools are primed, so each solve is iteration plus at most
// one O(n) permuted copy of the factored transition.
func BenchmarkCoreSolveWarm(b *testing.B) {
	g := benchGraph(b)
	e := EngineFor(g)
	tr := DegreeDecoupled(g, 1)
	if _, err := e.solve(context.Background(), tr, benchOpts, 1); err != nil { // prime the pools
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.solve(context.Background(), tr, benchOpts, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportNsPerArc(b, g.NumArcs(), benchOpts.MaxIter)
}

// BenchmarkCoreSolveCancelOverhead measures the warm-solve path under a live
// cancellable context — the serving configuration after deadline propagation,
// where every iteration polls ctx.Err() on a real context.WithCancel /
// WithTimeout chain rather than the free Background stub. Compare against
// BenchmarkCoreSolveWarm in BENCH_core.json: the per-iteration check must
// stay under 1% of the warm-solve cost. Declared directly after the warm
// bench so the pair runs back to back — within-suite thermal drift would
// otherwise dwarf the overhead being measured.
func BenchmarkCoreSolveCancelOverhead(b *testing.B) {
	g := benchGraph(b)
	e := EngineFor(g)
	tr := DegreeDecoupled(g, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		if _, err := e.solve(ctx, tr, benchOpts, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.solve(ctx, tr, benchOpts, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportNsPerArc(b, g.NumArcs(), benchOpts.MaxIter)
}

// BenchmarkCoreSolveWarmUniform measures the implicit uniform (p = 0)
// transition: no per-arc probabilities exist anywhere on the path.
func BenchmarkCoreSolveWarmUniform(b *testing.B) {
	g := benchGraph(b)
	e := EngineFor(g)
	tr := Uniform(g)
	if _, err := e.solve(context.Background(), tr, benchOpts, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.solve(context.Background(), tr, benchOpts, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportNsPerArc(b, g.NumArcs(), benchOpts.MaxIter)
}

// BenchmarkCoreSolveWarmBlended measures a warm per-arc solve: a β = 0.5
// blend at p = 1, transition construction and the pull-order probability
// build included, so ns_per_arc carries the build's share of the solve.
func BenchmarkCoreSolveWarmBlended(b *testing.B) {
	g := benchGraph(b)
	e := EngineFor(g)
	solve := func() {
		tr, err := Blended(g, 1, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.solve(context.Background(), tr, benchOpts, 1); err != nil {
			b.Fatal(err)
		}
	}
	solve() // prime the pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
	reportNsPerArc(b, g.NumArcs(), benchOpts.MaxIter)
}

// BenchmarkCoreSolveWarmNoReorder is the locality-relabeling ablation: the
// same warm solve on an identity-ordered engine. The gap to
// BenchmarkCoreSolveWarm is the reordering's contribution.
func BenchmarkCoreSolveWarmNoReorder(b *testing.B) {
	g := benchGraph(b)
	e := newEngineIdentity(g)
	tr := DegreeDecoupled(g, 1)
	for i := 0; i < 2; i++ {
		if _, err := e.solve(context.Background(), tr, benchOpts, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.solve(context.Background(), tr, benchOpts, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportNsPerArc(b, g.NumArcs(), benchOpts.MaxIter)
}

// benchSweep runs the fixed-iteration power core with the given worker count
// over a pre-scattered probability buffer, on the cache-blocked schedule
// (workers grab whole destination blocks; one worker walks them in order).
// Besides wall time (which only separates worker counts on multi-core
// hosts), it reports the block count, which is deterministic.
func benchSweep(b *testing.B, workers int) {
	g := benchGraph(b)
	e := EngineFor(g)
	probs := pullOrder(e, DegreeDecoupled(g, 1).arcProbs())
	opts, err := benchOpts.withDefaults(e.n)
	if err != nil {
		b.Fatal(err)
	}

	if _, err := powerSolve(context.Background(), e, probs, nil, nil, opts, workers); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := powerSolve(context.Background(), e, probs, nil, nil, opts, workers); err != nil {
			b.Fatal(err)
		}
	}
	// After the loop: ResetTimer deletes user metrics reported before it.
	reportNsPerArc(b, g.NumArcs(), opts.MaxIter)
	b.ReportMetric(float64(len(e.blocks)-1), "blocks")
}

func BenchmarkCoreSweepBlocked4(b *testing.B) { benchSweep(b, 4) }
func BenchmarkCoreSweepBlocked8(b *testing.B) { benchSweep(b, 8) }

// BenchmarkCoreSweepSequential anchors the parallel numbers.
func BenchmarkCoreSweepSequential(b *testing.B) { benchSweep(b, 1) }

// BenchmarkCoreConvergePower runs warm solves to a real tolerance (not the
// pinned iteration count), 1e-14, so the whole convergence tail is timed.
// The iteration count is reported alongside ns/op.
func BenchmarkCoreConvergePower(b *testing.B) {
	g := benchGraph(b)
	e := EngineFor(g)
	tr := DegreeDecoupled(g, 1)
	opts := Options{Alpha: DefaultAlpha, Tol: 1e-14}
	var iters int
	for i := 0; i < 2; i++ {
		res, err := e.solve(context.Background(), tr, opts, 1)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("did not converge in %d iterations", res.Iterations)
		}
		iters = res.Iterations
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.solve(context.Background(), tr, opts, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(iters), "iters")
}
