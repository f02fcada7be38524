package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"d2pr/internal/graph"
)

// The fixpoint certificate is the tests' independent second opinion on a
// stationary solve. The answer r* is the fixpoint of
//
//	F(r) = α·T·r + (1−α)·t,
//
// with the walk mass on nodes without out-arcs sent to the teleport t. F is
// an α-contraction in L1, so ‖r − r*‖₁ ≤ ρ/(1−α) for ρ = ‖F(r) − r‖₁.
// fixpointPass evaluates F in float64 by scattering over the forward CSR and
// Transition.ProbsFrom; it shares no code with the engine's sweep, which
// pulls over a relabeled, blocked CSR and reads factored tables.
//
// A power solve returns r = x_k for Residual = ‖x_k − x_{k−1}‖₁, and
// F(x_k) − x_k = F(x_k) − F(x_{k−1}) = α·M·(x_k − x_{k−1}) for the
// column-stochastic M that folds the dangling mass into t. So ρ ≤ α·Residual
// in exact arithmetic, and certify allows a slack of 2¹⁰·u on top, for the
// unit roundoff u = 2⁻⁵³.
const certSlack = 0x1p-43

// fixpointPass sets y = F(x) for the teleport distribution tele, which must
// sum to 1, and returns ‖y − x‖₁.
func fixpointPass(tr *Transition, alpha float64, tele, x, y []float64) float64 {
	g := tr.Graph()
	clear(y)
	var dangling float64
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		lo, hi := g.ArcRange(u)
		if lo == hi {
			dangling += x[u]
			continue
		}
		probs := tr.ProbsFrom(u)
		for k := lo; k < hi; k++ {
			y[g.ArcTarget(k)] += alpha * x[u] * probs[k-lo]
		}
	}
	base := (1 - alpha) + alpha*dangling
	var diff float64
	for v := range y {
		y[v] += base * tele[v]
		diff += math.Abs(y[v] - x[v])
	}
	return diff
}

// denseFixpoint iterates fixpointPass from tele until two iterates lie
// within 1e-14 in L1: the reference solve, written independently of the
// engine and of the push solver.
func denseFixpoint(tr *Transition, alpha float64, tele []float64) []float64 {
	x := append([]float64(nil), tele...)
	y := make([]float64, len(x))
	for iter := 0; iter < 2000; iter++ {
		diff := fixpointPass(tr, alpha, tele, x, y)
		x, y = y, x
		if diff < 1e-14 {
			break
		}
	}
	return x
}

// normalizedTeleport returns the distribution the solver derives from
// Options.Teleport: uniform for nil, tele scaled to sum 1 otherwise.
func normalizedTeleport(tele []float64, n int) []float64 {
	out := make([]float64, n)
	if tele == nil {
		for v := range out {
			out[v] = 1 / float64(n)
		}
		return out
	}
	var s float64
	for _, v := range tele {
		s += v
	}
	for v, w := range tele {
		out[v] = w / s
	}
	return out
}

// certify checks a converged solve of tr under opts against the certificate,
// ρ ≤ α·Residual + slack. It reports the excess ρ − α·Residual and whether
// the check passed.
func certify(t *testing.T, path string, tr *Transition, opts Options, res *Result, err error) (excess float64, ok bool) {
	t.Helper()
	if err != nil {
		t.Errorf("%s: %v", path, err)
		return 0, false
	}
	n := tr.Graph().NumNodes()
	alpha := opts.Alpha
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	rho := fixpointPass(tr, alpha, normalizedTeleport(opts.Teleport, n), res.Scores, make([]float64, n))
	excess = rho - alpha*res.Residual
	if !res.Converged || !(excess <= certSlack) { // also catches NaN
		t.Errorf("%s: ρ = %.3g exceeds α·Residual = %.3g by %.3g, slack %.3g (converged %v after %d iterations)",
			path, rho, alpha*res.Residual, excess, certSlack, res.Converged, res.Iterations)
		return excess, false
	}
	return excess, true
}

// certifyGraph solves g on every production solve path and certifies each
// answer. The transitions are the implicit uniform one, connection strength
// on a weighted graph (per-arc; on an unweighted one it is the uniform one),
// and at each p the factored D2PR transition (or its per-arc fallback at
// extreme p) and the per-arc β = 0.5 blend. Each runs with a uniform and a
// one-node teleport, on reordered and identity engines with 1 and 4
// workers, and through Solve. worst collects the largest excess. It reports
// whether every check passed.
func certifyGraph(t *testing.T, g *graph.Graph, ps []float64, worst *float64) bool {
	t.Helper()
	type namedTransition struct {
		name string
		tr   *Transition
	}
	trs := []namedTransition{{"uniform", Uniform(g)}}
	if g.Weighted() {
		trs = append(trs, namedTransition{"connection", ConnectionStrength(g)})
	}
	for _, p := range ps {
		blended, err := Blended(g, p, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs,
			namedTransition{fmt.Sprintf("d2pr(p=%g)", p), DegreeDecoupled(g, p)},
			namedTransition{fmt.Sprintf("blend(p=%g)", p), blended})
	}
	n := g.NumNodes()
	engines := []struct {
		name string
		e    *Engine
	}{{"reordered", NewEngine(g)}, {"identity", newEngineIdentity(g)}}
	ok := true
	check := func(path string, tr *Transition, opts Options, res *Result, err error) {
		t.Helper()
		excess, pass := certify(t, path, tr, opts, res, err)
		ok = ok && pass
		*worst = math.Max(*worst, excess)
	}
	for _, tr := range trs {
		for _, tele := range [][]float64{nil, seedVector(n, int32(n-1))} {
			teleName := "uniform-teleport"
			if tele != nil {
				teleName = "seed-teleport"
			}
			for _, en := range engines {
				for _, workers := range []int{1, 4} {
					opts := Options{Teleport: tele}
					res, err := en.e.solve(context.Background(), tr.tr, opts, workers)
					check(fmt.Sprintf("%s/%s/%s/workers=%d", tr.name, teleName, en.name, workers), tr.tr, opts, res, err)
				}
			}
			opts := Options{Teleport: tele}
			res, err := Solve(tr.tr, opts)
			check(fmt.Sprintf("%s/%s/core.Solve", tr.name, teleName), tr.tr, opts, res, err)
		}
	}
	return ok
}

// TestFixpointCertificateCorpus certifies every solve path on the graphs the
// random corpus of TestSolversAgreeProperty misses: a single node, no arcs,
// weights near 1e12 (at |p| = 40 NaivePow overflows and DegreeDecoupled
// falls back to per-arc probabilities), a directed cycle with one chord
// (eigenvalues near the unit circle), and a graph of several sweep blocks,
// so that 4 workers share the sweep.
func TestFixpointCertificateCorpus(t *testing.T) {
	heavy := graph.NewBuilder(graph.Undirected).Weighted().EnsureNodes(8)
	for i := int32(0); i < 8; i++ {
		heavy.AddWeightedEdge(i, (i+1)%8, 1e12*(1+float64(i)/8))
	}
	heavy.AddWeightedEdge(0, 4, 3e12).AddWeightedEdge(2, 6, 0.5e12)
	cycle := graph.NewBuilder(graph.Directed).EnsureNodes(12)
	for i := int32(0); i < 12; i++ {
		cycle.AddEdge(i, (i+1)%12)
	}
	cycle.AddEdge(0, 6)
	blocks := powerLawGraph(t, 3000, 5, 19)
	if nb := len(EngineFor(blocks).blocks) - 1; nb < 2 {
		t.Fatalf("the multi-block graph has %d sweep block(s), want ≥ 2", nb)
	}
	var worst float64
	for _, c := range []struct {
		name string
		g    *graph.Graph
		ps   []float64
	}{
		{"single-node", graph.NewBuilder(graph.Directed).EnsureNodes(1).MustBuild(), []float64{1}},
		{"edgeless", graph.NewBuilder(graph.Undirected).EnsureNodes(6).MustBuild(), []float64{1}},
		{"heavy-weights", heavy.MustBuild(), []float64{-40, -4, 1, 4, 40}},
		{"cycle-chord", cycle.MustBuild(), []float64{-4, 1, 4}},
		{"multi-block", blocks, []float64{-4, 1, 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			certifyGraph(t, c.g, c.ps, &worst)
		})
	}
	t.Logf("worst excess ρ − α·Residual: %.2g", worst)
}
