package d2pr

import (
	"math"
	"testing"

	"d2pr/internal/core"
	"d2pr/internal/dataset"
)

func fig1(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(Undirected, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 4}, {4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRankDefaultIsPageRank(t *testing.T) {
	g := fig1(t)
	a, err := Rank(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewEngine(g).Solve(core.ConnectionStrength(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Scores {
		if math.Abs(a.Scores[i]-b.Scores[i]) > 1e-12 {
			t.Fatalf("node %d: Rank %v != PageRank %v", i, a.Scores[i], b.Scores[i])
		}
	}
}

func TestRankWithP(t *testing.T) {
	g := fig1(t)
	a, err := Rank(g, Params{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewEngine(g).Solve(core.DegreeDecoupled(g, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatalf("node %d differs", i)
		}
	}
}

func TestRankWithBeta(t *testing.T) {
	g, err := FromWeighted(Undirected, []WeightedEdge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Rank(g, Params{P: 1, Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	blend, err := core.Blended(g, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewEngine(g).Solve(blend, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatalf("node %d differs", i)
		}
	}
	if _, err := Rank(g, Params{Beta: 1.5}); err == nil {
		t.Error("invalid beta must error")
	}
}

func TestRankWithSeeds(t *testing.T) {
	g := fig1(t)
	res, err := Rank(g, Params{Seeds: []int32{5}})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := Rank(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[5] <= uniform.Scores[5] {
		t.Error("seeding node 5 must raise its score")
	}
	_, err = Rank(g, Params{Seeds: []int32{42}})
	if want := "core: seed 42 out of range [0, 6)"; err == nil || err.Error() != want {
		t.Errorf("out-of-range seed: err %v, want %q", err, want)
	}
	if _, err := Rank(g, Params{Seeds: []int32{-1}}); err == nil {
		t.Error("negative seed must error")
	}
}

// TestRankNonFiniteP checks that Rank rejects a NaN or infinite p instead of
// returning NaN scores.
func TestRankNonFiniteP(t *testing.T) {
	g := fig1(t)
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, beta := range []float64{0, 0.5} {
			if res, err := Rank(g, Params{P: p, Beta: beta}); err == nil {
				t.Errorf("p=%v beta=%v: want error, got scores %v", p, beta, res.Scores)
			}
		}
	}
}

// TestRankNonFiniteOptions checks that Rank rejects a NaN or infinite α or
// tolerance instead of returning NaN scores or an unconverged answer.
func TestRankNonFiniteOptions(t *testing.T) {
	g := fig1(t)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, opts := range []Options{{Alpha: v}, {Tol: v}} {
			if res, err := Rank(g, Params{P: 1, Options: opts}); err == nil {
				t.Errorf("options %+v: want error, got scores %v", opts, res.Scores)
			}
		}
	}
}

// TestRankDefaultWeighted pins what Params{} means on a weighted graph: D2PR
// at p = 0, which ignores the weights, and not connection-strength PageRank,
// which Params{Beta: 1} gives.
func TestRankDefaultWeighted(t *testing.T) {
	g, err := FromWeighted(Undirected, []WeightedEdge{
		{U: 0, V: 1, W: 10}, {U: 0, V: 2, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Rank(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	d2pr0, err := core.NewEngine(g).Solve(core.DegreeDecoupled(g, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Rank(g, Params{Beta: 1})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.NewEngine(g).Solve(core.ConnectionStrength(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var l1 float64
	for i := range def.Scores {
		if def.Scores[i] != d2pr0.Scores[i] || conn.Scores[i] != pr.Scores[i] {
			t.Fatalf("node %d: Rank(Params{}) %v vs D2PR(0) %v, Rank(Beta 1) %v vs PageRank %v",
				i, def.Scores[i], d2pr0.Scores[i], conn.Scores[i], pr.Scores[i])
		}
		l1 += math.Abs(def.Scores[i] - pr.Scores[i])
	}
	if l1 < 0.1 {
		t.Errorf("Rank(Params{}) lies %v in L1 from PageRank; the weights should separate them", l1)
	}
	t.Logf("L1(Rank(Params{}), PageRank) = %.3f", l1)
}

func TestDegreeCorrelation(t *testing.T) {
	g := fig1(t)
	res, err := Rank(g, Params{Beta: 1})
	if err != nil {
		t.Fatal(err)
	}
	rho := DegreeCorrelation(g, res.Scores)
	if rho < 0.8 {
		t.Errorf("PageRank degree coupling = %v, want strong", rho)
	}
	pen, err := Rank(g, Params{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := DegreeCorrelation(g, pen.Scores); got >= rho {
		t.Errorf("penalized coupling %v must drop below %v", got, rho)
	}
}

func TestOptimalP(t *testing.T) {
	// A dense clique K6 bridged to a sparse 8-cycle: penalization drains
	// walk mass out of the high-degree clique into the low-degree cycle,
	// so inverse-degree significance rewards p > 0. (Star-shaped test
	// graphs don't work here — a leaf's only transition is its hub, so the
	// hub wins at every p.)
	b := NewBuilder(Undirected)
	for i := int32(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			b.AddEdge(i, j)
		}
	}
	for i := int32(6); i < 13; i++ {
		b.AddEdge(i, i+1)
	}
	b.AddEdge(13, 6) // close the cycle
	b.AddEdge(5, 6)  // bridge
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Significance = inverse degree → strong penalization should win.
	sig := make([]float64, g.NumNodes())
	for i := range sig {
		sig[i] = 1 / float64(1+g.Degree(int32(i)))
	}
	p, rho, err := OptimalP(g, sig, -2, 2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 {
		t.Errorf("optimal p = %v, want positive for inverse-degree significance", p)
	}
	if rho <= 0 {
		t.Errorf("optimal rho = %v", rho)
	}
	if _, _, err := OptimalP(g, sig, 2, -2, 1, Options{}); err == nil {
		t.Error("hi < lo must error")
	}
	if _, _, err := OptimalP(g, sig, -1, 1, 0, Options{}); err == nil {
		t.Error("zero step must error")
	}
}

// TestOptimalPGridIsExact: OptimalP evaluates p = lo + i·step, so a grid
// point that should be 0 is 0, not the rounding error repeated addition
// builds up. With p = 0 PageRank as the significance, the best p is 0.
func TestOptimalPGridIsExact(t *testing.T) {
	g := dataset.BarabasiAlbert(2000, 3, 5)
	pr, err := Rank(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	p, rho, err := OptimalP(g, pr.Scores, -1, 1, 0.1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 || rho != 1 {
		t.Errorf("OptimalP = (%v, %v), want (0, 1)", p, rho)
	}
}

func TestFacadeHelpers(t *testing.T) {
	g := fig1(t)
	if s := ComputeStats(g); s.Nodes != 6 || s.Edges != 6 {
		t.Errorf("stats = %+v", s)
	}
	if got := Spearman([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 1 {
		t.Errorf("Spearman = %v", got)
	}
	if got := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Pearson = %v", got)
	}
	if got := TopK([]float64{1, 3, 2}, 2); got[0] != 1 || got[1] != 2 {
		t.Errorf("TopK = %v", got)
	}
	if got := CompetitionRanks([]float64{1, 3, 2}); got[1] != 1 {
		t.Errorf("CompetitionRanks = %v", got)
	}
	dc := DegreeCentrality(g)
	if len(dc) != 6 {
		t.Errorf("DegreeCentrality size %d", len(dc))
	}
	h, err := HITS(g, Options{})
	if err != nil || len(h.Authorities) != 6 {
		t.Errorf("HITS: %v", err)
	}
	ppr, err := Rank(g, Params{Beta: 1, Seeds: []int32{0}})
	if err != nil || len(ppr.Scores) != 6 {
		t.Errorf("PPR: %v", err)
	}
	b := NewBuilder(Directed).AddEdge(0, 1)
	if g2, err := b.Build(); err != nil || g2.NumEdges() != 1 {
		t.Errorf("builder via façade: %v", err)
	}
}
