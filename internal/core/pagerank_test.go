package core

import (
	"math"
	"runtime"
	"testing"
	"weak"

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
		res, err := Rank(g, Params{P: p, Options: Options{Tol: 1e-11}})
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
	r0, err := Rank(g, Params{Options: Options{Tol: 1e-11}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Rank(g, Params{P: 2, Options: Options{Tol: 1e-11}})
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
	a, err := Rank(g, Params{Options: Options{Tol: 1e-13}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := solveFresh(ConnectionStrength(g), Options{Tol: 1e-13})
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
		if _, err := Rank(g, Params{P: p}); err == nil {
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
	b1, err := Rank(g, Params{P: 2, Beta: 1, Options: Options{Tol: 1e-13}})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := solveFresh(ConnectionStrength(g), Options{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	for i := range b1.Scores {
		if math.Abs(b1.Scores[i]-conv.Scores[i]) > 1e-10 {
			t.Fatalf("β=1 must be conventional: node %d %v vs %v", i, b1.Scores[i], conv.Scores[i])
		}
	}
	if _, err := Rank(g, Params{P: 1, Beta: 2}); err == nil {
		t.Error("β=2 must error")
	}
	if _, err := Rank(g, Params{P: math.NaN(), Beta: 0.5}); err == nil {
		t.Error("NaN p must error")
	}
}

func TestDegreeBiasedTeleport(t *testing.T) {
	g := skewedGraph(300, 9)
	deg := degreesOf(g)
	plain, err := Rank(g, Params{Beta: 1, Options: Options{Tol: 1e-11}})
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

// TestRankMatchesSolve pins Rank to the solve each Params shape stands for:
// on an unweighted and a weighted graph, it returns the scores, iteration
// count and residual of Solve on the named transition, bit for bit.
func TestRankMatchesSolve(t *testing.T) {
	const p, beta = 1.5, 0.4
	opts := Options{Tol: 1e-12}
	for name, g := range map[string]*graph.Graph{
		"unweighted": skewedGraph(200, 3),
		"weighted":   withWeights(t, powerLawGraph(t, 300, 5, 3)),
	} {
		blend, err := Blended(g, p, beta)
		if err != nil {
			t.Fatal(err)
		}
		tele := make([]float64, g.NumNodes())
		tele[1], tele[3] = 1, 1
		for _, c := range []struct {
			name   string
			params Params
			tr     *Transition
			tele   []float64
		}{
			{"connection", Params{Beta: 1}, ConnectionStrength(g), nil},
			{"decoupled", Params{P: p}, DegreeDecoupled(g, p), nil},
			{"blend", Params{P: p, Beta: beta}, blend, nil},
			{"seeded", Params{Beta: 1, Seeds: []int32{3, 1, 3}}, ConnectionStrength(g), tele},
		} {
			c.params.Options = opts
			got, err := Rank(g, c.params)
			if err != nil {
				t.Fatalf("%s/%s: Rank: %v", name, c.name, err)
			}
			want, err := solveFresh(c.tr, Options{Tol: opts.Tol, Teleport: c.tele})
			if err != nil {
				t.Fatalf("%s/%s: Solve: %v", name, c.name, err)
			}
			if got.Iterations != want.Iterations || math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
				t.Fatalf("%s/%s: %d iterations, residual %v; Solve: %d, %v",
					name, c.name, got.Iterations, got.Residual, want.Iterations, want.Residual)
			}
			for i := range got.Scores {
				if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
					t.Fatalf("%s/%s: score[%d] = %v, Solve %v", name, c.name, i, got.Scores[i], want.Scores[i])
				}
			}
		}
	}
}

// TestRankReleasesGraph: Rank's engine belongs to the call, so nothing in the
// package keeps the ranked graph alive once the caller drops it.
func TestRankReleasesGraph(t *testing.T) {
	graphRef := func() weak.Pointer[graph.Graph] {
		g := withWeights(t, powerLawGraph(t, 3000, 5, 21))
		if _, err := Rank(g, Params{P: 1, Beta: 0.5}); err != nil {
			t.Fatal(err)
		}
		return weak.Make(g)
	}()
	// An engine's used sync.Pools stay on the runtime's pool list until two
	// collections have passed.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if graphRef.Value() != nil {
		t.Fatal("graph still reachable after Rank returned")
	}
}
