package core

import (
	"math"
	"testing"

	"d2pr/internal/dataset/rng"
	"d2pr/internal/graph"
	"d2pr/internal/stats"
)

// skewedGraph builds an undirected graph with a broad degree spread: a few
// hubs plus a sparse background, deterministic in seed.
func skewedGraph(n int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(graph.Undirected).EnsureNodes(n).Duplicates(graph.DupKeepFirst)
	// hubs: first 5 nodes connect to many others
	for h := int32(0); h < 5; h++ {
		for i := 0; i < n/4; i++ {
			v := int32(r.Intn(n))
			if v != h {
				b.AddEdge(h, v)
			}
		}
	}
	for i := 0; i < 2*n; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

func degreesOf(g *graph.Graph) []float64 {
	out := make([]float64, g.NumNodes())
	for i := range out {
		out[i] = float64(g.Degree(int32(i)))
	}
	return out
}

func TestD2PRDegreeCouplingTable2(t *testing.T) {
	// The paper's Table 2 effect, stated on the extreme nodes: penalization
	// (p > 0) pushes the top-degree node down the ranking and pulls
	// degree-1 nodes up; boosting (p < 0) does the opposite. (The *global*
	// rank–degree correlation is not monotone in p on hub graphs — boosting
	// over-concentrates on local hubs — so the invariant is about the
	// extremes, exactly as the paper presents it.)
	g := skewedGraph(400, 5)
	deg := degreesOf(g)
	top := stats.TopK(deg, 1)[0]
	rankAt := map[float64]int{}
	for _, p := range []float64{-2, 0, 2} {
		res, err := D2PR(g, p, Options{Tol: 1e-11})
		if err != nil {
			t.Fatal(err)
		}
		rankAt[p] = stats.CompetitionRanks(res.Scores)[top]
	}
	// Boosting keeps the hub near the very top (paper: rank 1 at p=-2);
	// penalization sends it far down (paper: rank 5549 of ~7800 at p=2).
	if rankAt[-2] > g.NumNodes()/50 {
		t.Errorf("p=-2: top-degree node rank %d, want within top 2%%", rankAt[-2])
	}
	if rankAt[2] < 10*rankAt[0] || rankAt[2] < g.NumNodes()/2 {
		t.Errorf("p=2: top-degree node rank %d (p=0: %d), want pushed far down",
			rankAt[2], rankAt[0])
	}
	// Conventional PageRank must be strongly degree-coupled (Table 1), and
	// penalization must weaken that coupling substantially.
	r0, err := D2PR(g, 0, Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := D2PR(g, 2, Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	rho0 := stats.Spearman(r0.Scores, deg)
	rho2 := stats.Spearman(r2.Scores, deg)
	if rho0 < 0.9 {
		t.Errorf("conventional coupling = %v, want ≥ 0.9", rho0)
	}
	if rho2 > rho0-0.2 {
		t.Errorf("penalized coupling = %v, want well below %v", rho2, rho0)
	}
}

func TestD2PRZeroMatchesPageRankUnweighted(t *testing.T) {
	g := skewedGraph(150, 6)
	a, err := D2PR(g, 0, Options{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PageRank(g, Options{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Scores {
		if math.Abs(a.Scores[i]-b.Scores[i]) > 1e-10 {
			t.Fatalf("node %d: D2PR(0) %v != PageRank %v", i, a.Scores[i], b.Scores[i])
		}
	}
}

func TestD2PRInvalidP(t *testing.T) {
	g := skewedGraph(20, 7)
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := D2PR(g, p, Options{}); err == nil {
			t.Errorf("p=%v: want error", p)
		}
	}
}

func TestD2PRBlendedWeighted(t *testing.T) {
	g, err := graph.FromWeighted(graph.Undirected, []graph.WeightedEdge{
		{U: 0, V: 1, W: 10}, {U: 0, V: 2, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// β=1 equals conventional weighted PageRank.
	b1, err := D2PRBlended(g, 2, 1, Options{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := PageRank(g, Options{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	for i := range b1.Scores {
		if math.Abs(b1.Scores[i]-conv.Scores[i]) > 1e-10 {
			t.Fatalf("β=1 must be conventional: node %d %v vs %v", i, b1.Scores[i], conv.Scores[i])
		}
	}
	if _, err := D2PRBlended(g, 1, 2, Options{}); err == nil {
		t.Error("β=2 must error")
	}
	if _, err := D2PRBlended(g, math.NaN(), 0.5, Options{}); err == nil {
		t.Error("NaN p must error")
	}
}

func TestDegreeBiasedTeleport(t *testing.T) {
	g := skewedGraph(300, 9)
	deg := degreesOf(g)
	plain, err := PageRank(g, Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	boostLow, err := DegreeBiasedTeleport(g, 2, Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	boostHigh, err := DegreeBiasedTeleport(g, -2, Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	rhoPlain := stats.Spearman(plain.Scores, deg)
	rhoLow := stats.Spearman(boostLow.Scores, deg)
	rhoHigh := stats.Spearman(boostHigh.Scores, deg)
	if !(rhoLow < rhoPlain) {
		t.Errorf("q=2 must weaken degree coupling: %v !< %v", rhoLow, rhoPlain)
	}
	if rhoHigh < 0.9 {
		t.Errorf("q=-2 coupling = %v, want still strong (≥0.9)", rhoHigh)
	}
	// The mechanism of ref [2]: low-degree nodes gain rank mass under q>0.
	// Compare the mean score of the 20 lowest-degree (non-isolated) nodes.
	lows := graph.BottomDegreeNodes(g, 20)
	meanAt := func(scores []float64) float64 {
		var s float64
		for _, u := range lows {
			s += scores[u]
		}
		return s / float64(len(lows))
	}
	if !(meanAt(boostLow.Scores) > meanAt(plain.Scores)) {
		t.Errorf("q=2 must lift low-degree nodes: %v !> %v",
			meanAt(boostLow.Scores), meanAt(plain.Scores))
	}
	if _, err := DegreeBiasedTeleport(g, math.NaN(), Options{}); err == nil {
		t.Error("NaN q must error")
	}
	empty := graph.NewBuilder(graph.Undirected).MustBuild()
	if _, err := DegreeBiasedTeleport(empty, 1, Options{}); err == nil {
		t.Error("empty graph must error")
	}
}

func TestWeightedD2PRUsesTheta(t *testing.T) {
	// Node 0 has two neighbors with equal degree but different out-weight
	// Θ: with p > 0 the lighter-Θ neighbor must receive more probability.
	g, err := graph.FromWeighted(graph.Undirected, []graph.WeightedEdge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1},
		{U: 1, V: 3, W: 10}, // Θ(1) = 11
		{U: 2, V: 3, W: 1},  // Θ(2) = 2
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := DegreeDecoupled(g, 1)
	probs := tr.ProbsFrom(0)
	nb := g.Neighbors(0)
	var p1, p2 float64
	for j, v := range nb {
		if v == 1 {
			p1 = probs[j]
		}
		if v == 2 {
			p2 = probs[j]
		}
	}
	if !(p2 > p1) {
		t.Errorf("lighter-Θ neighbor must win under p=1: P(0→2)=%v !> P(0→1)=%v", p2, p1)
	}
	// Exact: Θ(1)=11, Θ(2)=2 → probs ∝ 1/11, 1/2.
	want1 := (1.0 / 11) / (1.0/11 + 0.5)
	if math.Abs(p1-want1) > 1e-12 {
		t.Errorf("P(0→1) = %v, want %v", p1, want1)
	}
}
