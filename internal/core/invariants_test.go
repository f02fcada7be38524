package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"d2pr/internal/graph"
	"d2pr/internal/stats"
)

// This file collects cross-cutting invariants of the ranking engine that are
// cheapest to state as properties over random graphs.

// randomWeighted builds a random weighted graph from fuzz input.
func randomWeighted(r *rand.Rand, directed bool) *graph.Graph {
	kind := graph.Undirected
	if directed {
		kind = graph.Directed
	}
	n := 3 + r.Intn(30)
	b := graph.NewBuilder(kind).Weighted().EnsureNodes(n)
	for i := 0; i < 3*n; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u != v {
			b.AddWeightedEdge(u, v, 0.5+4*r.Float64())
		}
	}
	return b.MustBuild()
}

func TestBlendedStochasticProperty(t *testing.T) {
	// Property: every blended transition is column-stochastic for any
	// (p, β) combination on any weighted graph.
	f := func(seed int64, pRaw, betaRaw float64, directed bool) bool {
		r := rand.New(rand.NewSource(seed))
		p := math.Mod(pRaw, 4)
		beta := math.Abs(math.Mod(betaRaw, 1))
		if math.IsNaN(p) || math.IsNaN(beta) {
			p, beta = 0, 0.5
		}
		g := randomWeighted(r, directed)
		tr, err := Blended(g, p, beta)
		if err != nil {
			return false
		}
		return tr.validate(1e-9) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(32))}); err != nil {
		t.Error(err)
	}
}

func TestSolversAgreeProperty(t *testing.T) {
	// Property: every production solve path reaches a certified fixpoint
	// (see certify) on random weighted directed graphs with dangling nodes.
	var worst float64
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomWeighted(r, true)
		return certifyGraph(t, g, []float64{math.Mod(float64(seed), 3)}, &worst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(33))}); err != nil {
		t.Error(err)
	}
	t.Logf("worst excess ρ − α·Residual: %.2g", worst)
}

func TestTeleportBoostMonotonicity(t *testing.T) {
	// Property: raising a node's teleport weight never lowers its score.
	g := skewedGraph(120, 51)
	tr := Uniform(g)
	n := g.NumNodes()
	base := make([]float64, n)
	for i := range base {
		base[i] = 1
	}
	for _, boost := range []float64{2, 5, 20} {
		tele := make([]float64, n)
		copy(tele, base)
		tele[7] = boost
		resBase, err := Solve(tr, Options{Tol: 1e-12, Teleport: base})
		if err != nil {
			t.Fatal(err)
		}
		resBoost, err := Solve(tr, Options{Tol: 1e-12, Teleport: tele})
		if err != nil {
			t.Fatal(err)
		}
		if resBoost.Scores[7] <= resBase.Scores[7] {
			t.Errorf("boost %v: score %v !> base %v", boost, resBoost.Scores[7], resBase.Scores[7])
		}
	}
}

func TestIsolatedNodeGetsTeleportShare(t *testing.T) {
	// An isolated node's only mass source is teleportation: its score must
	// be close to (1-α)/n plus returned dangling mass, and strictly
	// positive.
	b := graph.NewBuilder(graph.Undirected).EnsureNodes(10)
	for i := int32(0); i < 8; i++ {
		b.AddEdge(i, (i+1)%8)
	}
	g := b.MustBuild() // nodes 8, 9 isolated
	res, err := PageRank(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[8] <= 0 || res.Scores[9] <= 0 {
		t.Fatalf("isolated nodes got %v/%v", res.Scores[8], res.Scores[9])
	}
	if math.Abs(res.Scores[8]-res.Scores[9]) > 1e-12 {
		t.Errorf("symmetric isolated nodes differ: %v vs %v", res.Scores[8], res.Scores[9])
	}
	// Ring nodes all symmetric too.
	for i := 1; i < 8; i++ {
		if math.Abs(res.Scores[i]-res.Scores[0]) > 1e-9 {
			t.Errorf("ring symmetry broken at %d: %v vs %v", i, res.Scores[i], res.Scores[0])
		}
	}
}

func TestDesideratumLimits(t *testing.T) {
	// §3.1 of the paper, stated as score-level facts on the Figure-1 graph:
	// as p → +∞ node A's walk goes entirely to D (degree 1); as p → −∞
	// entirely to C (degree 3).
	g, err := graph.FromEdges(graph.Undirected, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 4}, {4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	strong := DegreeDecoupled(g, 40)
	probs := strong.ProbsFrom(0)
	nb := g.Neighbors(0)
	for j, v := range nb {
		want := 0.0
		if v == 3 { // D, degree 1
			want = 1.0
		}
		if math.Abs(probs[j]-want) > 1e-6 {
			t.Errorf("p=40: P(A→%d) = %v, want %v", v, probs[j], want)
		}
	}
	weak := DegreeDecoupled(g, -40)
	probs = weak.ProbsFrom(0)
	for j, v := range nb {
		want := 0.0
		if v == 2 { // C, degree 3
			want = 1.0
		}
		if math.Abs(probs[j]-want) > 1e-6 {
			t.Errorf("p=-40: P(A→%d) = %v, want %v", v, probs[j], want)
		}
	}
}

func TestRankCorrelationSanityAcrossSolvers(t *testing.T) {
	// The experiments only consume rankings; verify the solver induces the
	// ranking of the independent reference solve, not just close scores.
	g := skewedGraph(200, 57)
	tr := DegreeDecoupled(g, 1.5)
	opts := Options{Tol: 1e-12}
	res, err := Solve(tr, opts)
	if _, ok := certify(t, "solve", tr, opts, res, err); !ok {
		return
	}
	ref := denseFixpoint(tr, DefaultAlpha, normalizedTeleport(nil, g.NumNodes()))
	if rho := stats.Spearman(res.Scores, ref); rho < 0.999999 {
		t.Errorf("solver and reference rankings differ: ρ = %v", rho)
	}
}
