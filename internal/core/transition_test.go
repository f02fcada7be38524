package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"d2pr/internal/dataset"
	"d2pr/internal/graph"
)

// fig1Graph is the paper's Figure-1 sample graph.
func fig1Graph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(graph.Undirected, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 4}, {4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestUniformTransition(t *testing.T) {
	g := fig1Graph(t)
	tr := Uniform(g)
	if err := tr.validate(1e-12); err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.ProbsFrom(0) {
		if math.Abs(p-1.0/3) > 1e-12 {
			t.Errorf("P(A→·) = %v, want 1/3", p)
		}
	}
}

func TestDegreeDecoupledMatchesPaperFigure1(t *testing.T) {
	g := fig1Graph(t)
	// Neighbors of A (node 0) sorted by id: B(1) deg 2, C(2) deg 3, D(3) deg 1.
	cases := []struct {
		p    float64
		want []float64
	}{
		{0, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}},
		// p=2: deg^-2 = 1/4, 1/9, 1 → normalized 0.1837, 0.0816, 0.7347
		{2, []float64{0.25 / (0.25 + 1.0/9 + 1), (1.0 / 9) / (0.25 + 1.0/9 + 1), 1 / (0.25 + 1.0/9 + 1)}},
		// p=-2: deg^2 = 4, 9, 1 → 4/14, 9/14, 1/14
		{-2, []float64{4.0 / 14, 9.0 / 14, 1.0 / 14}},
	}
	for _, tc := range cases {
		tr := DegreeDecoupled(g, tc.p)
		if err := tr.validate(1e-12); err != nil {
			t.Fatalf("p=%v: %v", tc.p, err)
		}
		got := tr.ProbsFrom(0)
		for j := range tc.want {
			if math.Abs(got[j]-tc.want[j]) > 1e-12 {
				t.Errorf("p=%v: P(A→%d) = %v, want %v", tc.p, j+1, got[j], tc.want[j])
			}
		}
	}
}

func TestDegreeDecoupledZeroEqualsUniform(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	b := graph.NewBuilder(graph.Directed).EnsureNodes(30)
	for i := 0; i < 150; i++ {
		u, v := int32(r.Intn(30)), int32(r.Intn(30))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.MustBuild()
	u := Uniform(g)
	d := DegreeDecoupled(g, 0)
	for k := 0; k < g.NumArcs(); k++ {
		if math.Abs(u.Prob(int64(k))-d.Prob(int64(k))) > 1e-12 {
			t.Fatalf("arc %d: uniform %v != decoupled(0) %v", k, u.Prob(int64(k)), d.Prob(int64(k)))
		}
	}
}

func TestDegreeDecoupledStochasticProperty(t *testing.T) {
	// Property: for random graphs and random p ∈ [-5, 5], every row sums to
	// 1 and every probability is finite.
	f := func(seed int64, pRaw float64) bool {
		r := rand.New(rand.NewSource(seed))
		p := math.Mod(pRaw, 5)
		if math.IsNaN(p) {
			p = 0
		}
		n := 2 + r.Intn(40)
		b := graph.NewBuilder(graph.Undirected).EnsureNodes(n)
		for i := 0; i < 3*n; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.MustBuild()
		return DegreeDecoupled(g, p).validate(1e-9) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(35))}); err != nil {
		t.Error(err)
	}
}

func TestDegreeDecoupledExtremeP(t *testing.T) {
	// A hub with degree 100000 next to degree-1 leaves, p = ±4: the naive
	// power computation would produce 1e5^±4 = 1e±20 intermediate values —
	// still finite but near the precision edge; at p = ±60 the naive version
	// overflows to +Inf while log-space stays exact.
	b := graph.NewBuilder(graph.Undirected)
	hub := int32(0)
	for v := int32(1); v <= 100000; v++ {
		b.AddEdge(hub, v)
	}
	b.AddEdge(1, 2) // a node adjacent to both the hub and a leaf
	g := b.MustBuild()
	for _, p := range []float64{-60, -4, 4, 60} {
		tr := DegreeDecoupled(g, p)
		if err := tr.validate(1e-9); err != nil {
			t.Errorf("p=%v: %v", p, err)
		}
	}
	// Desideratum §3.1: p ≫ 1 sends ~100% of the mass to the lowest-degree
	// neighbor, p ≪ -1 to the highest-degree one. Node 1 neighbors: hub
	// (deg 100001) and node 2 (deg 2).
	probs := DegreeDecoupled(g, 60).ProbsFrom(1)
	nb := g.Neighbors(1)
	for j, v := range nb {
		if v == hub && probs[j] > 1e-12 {
			t.Errorf("p=60: hub still receives %v", probs[j])
		}
		if v != hub && probs[j] < 1-1e-12 {
			t.Errorf("p=60: low-degree neighbor gets %v, want ≈1", probs[j])
		}
	}
	probs = DegreeDecoupled(g, -60).ProbsFrom(1)
	for j, v := range nb {
		if v == hub && probs[j] < 1-1e-12 {
			t.Errorf("p=-60: hub gets %v, want ≈1", probs[j])
		}
	}
}

func TestNaivePowOverflowsWhereStableDoesNot(t *testing.T) {
	// The ablation pair: same graph, p large enough that deg^-p overflows
	// float64 in the naive normalization.
	b := graph.NewBuilder(graph.Undirected)
	for v := int32(1); v <= 50000; v++ {
		b.AddEdge(0, v)
	}
	b.AddEdge(1, 2)
	g := b.MustBuild()
	const p = -80 // deg^80 with deg=50001 → +Inf
	if err := DegreeDecoupled(g, p).validate(1e-9); err != nil {
		t.Fatalf("stable version failed: %v", err)
	}
	if err := validateProbs(g, naivePow(g, p), 1e-9); err == nil {
		t.Log("naive version unexpectedly survived; widen the exponent if float semantics change")
	}
}

func TestNaiveAgreesAtModerateP(t *testing.T) {
	g := fig1Graph(t)
	for _, p := range []float64{-2, -0.5, 0, 0.5, 2} {
		a := DegreeDecoupled(g, p)
		b := naivePow(g, p)
		for k := 0; k < g.NumArcs(); k++ {
			if math.Abs(a.Prob(int64(k))-b[k]) > 1e-12 {
				t.Errorf("p=%v arc %d: stable %v naive %v", p, k, a.Prob(int64(k)), b[k])
			}
		}
	}
}

// BenchmarkAblationLogspace compares the two evaluations of D2PR's per-arc
// probabilities at p = 4 on the scale-0.25 lastfm-artist-artist graph: the
// shifted log-space view a reader of DegreeDecoupled gets, against naive
// math.Pow. Correctness at extreme p is covered by the tests above; this
// reports the construction cost.
func BenchmarkAblationLogspace(b *testing.B) {
	d, err := dataset.GraphByName(dataset.Config{Scale: 0.25, Seed: 42}, dataset.LastfmArtistArtist)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Unweighted()
	b.Run("logspace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DegreeDecoupled(g, 4).arcProbs()
		}
	})
	b.Run("naive-pow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			naivePow(g, 4)
		}
	})
}

func TestConnectionStrength(t *testing.T) {
	g, err := graph.FromWeighted(graph.Directed, []graph.WeightedEdge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := ConnectionStrength(g)
	if err := tr.validate(1e-12); err != nil {
		t.Fatal(err)
	}
	probs := tr.ProbsFrom(0)
	if math.Abs(probs[0]-0.25) > 1e-12 || math.Abs(probs[1]-0.75) > 1e-12 {
		t.Errorf("probs = %v, want [0.25 0.75]", probs)
	}
}

func TestBlendedEndpoints(t *testing.T) {
	g, err := graph.FromWeighted(graph.Undirected, []graph.WeightedEdge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 4}, {U: 1, V: 2, W: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	const p = 1.5
	conn := ConnectionStrength(g)
	dec := DegreeDecoupled(g, p)
	b0, err := Blended(g, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := Blended(g, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	bHalf, err := Blended(g, p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := bHalf.validate(1e-12); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < int64(g.NumArcs()); k++ {
		if b0.Prob(k) != dec.Prob(k) {
			t.Fatalf("β=0 must equal DegreeDecoupled at arc %d", k)
		}
		if b1.Prob(k) != conn.Prob(k) {
			t.Fatalf("β=1 must equal ConnectionStrength at arc %d", k)
		}
		want := 0.5*conn.Prob(k) + 0.5*dec.Prob(k)
		if math.Abs(bHalf.Prob(k)-want) > 1e-12 {
			t.Fatalf("β=0.5 arc %d: got %v want %v", k, bHalf.Prob(k), want)
		}
	}
}

func TestBlendedBadBeta(t *testing.T) {
	g := fig1Graph(t)
	for _, beta := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := Blended(g, 1, beta); err == nil {
			t.Errorf("beta=%v: want error", beta)
		}
	}
}

// TestBlendedNonFiniteP checks that a NaN or infinite p is an error at every
// β, as in D2PR, rather than a transition whose solve is all NaN.
func TestBlendedNonFiniteP(t *testing.T) {
	g := blendTestGraph(t)
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, beta := range []float64{0, 0.5, 1} {
			_, err := Blended(g, p, beta)
			if err == nil || !strings.Contains(err.Error(), "invalid de-coupling weight") {
				t.Errorf("p=%v beta=%v: err %v, want an invalid de-coupling weight", p, beta, err)
			}
		}
	}
}

// blendTestGraph is a weighted 40-node graph with hubs, a ring, and varied
// weights, so the three transition regimes (β = 0, β = 1, blends) all
// differ.
func blendTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(graph.Undirected).Weighted()
	for i := int32(1); i < 12; i++ {
		b.AddWeightedEdge(0, i, float64(i))
	}
	for i := int32(0); i < 40; i++ {
		b.AddWeightedEdge(i, (i+1)%40, 1.5)
	}
	for i := int32(0); i < 20; i++ {
		b.AddWeightedEdge(i, 39-i, 0.5+float64(i%3))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBlendedExtremeP drives the de-coupling weight to values where the
// unshifted per-node factor table over- or underflows: ±300 makes factors
// denormal or +Inf, so sources must fail factorScale's gate and take the
// shifted evaluation instead of producing Inf/NaN probabilities. Scores must
// stay finite and normalized and agree with a solve of the reference
// transition that blends with D2PR's shifted per-arc view at every source.
func TestBlendedExtremeP(t *testing.T) {
	g := blendTestGraph(t)
	e := EngineFor(g)
	conn := ConnectionStrength(g)
	for _, beta := range []float64{0, 0.5} {
		for _, p := range []float64{-300, -50, -8, 8, 50, 300} {
			tr, err := Blended(g, p, beta)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Solve(tr, Options{})
			if err != nil {
				t.Fatalf("p=%g β=%g: %v", p, beta, err)
			}
			var sum float64
			for _, v := range res.Scores {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("p=%g β=%g: invalid score %v", p, beta, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("p=%g β=%g: scores sum to %v", p, beta, sum)
			}
			ref := append([]float64(nil), DegreeDecoupled(g, p).arcProbs()...)
			for k := range ref {
				ref[k] = beta*conn.Prob(int64(k)) + (1-beta)*ref[k]
			}
			want, err := solveArcs(e, ref, Options{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(res.Scores, want.Scores); d > 1e-9 {
				t.Fatalf("p=%g β=%g: max |Δ| = %g against the shifted reference", p, beta, d)
			}
		}
	}
}

// TestBlendedConcurrentSolves: one engine must serve concurrent parallel
// solves of distinct Blended transitions — the batch path runs a grid's
// configurations this way — with every result matching the serial solve
// bit for bit. The graph is weighted and has several sweep blocks, so the
// solves' helpers race over the engine's connection table and its pooled
// pull-order buffers. Run with -race.
func TestBlendedConcurrentSolves(t *testing.T) {
	g := withWeights(t, powerLawGraph(t, 3000, 6, 15))
	e := NewEngine(g)
	requireHelpers(t, e)
	type config struct{ p, beta float64 }
	var configs []config
	for _, p := range []float64{-1, 0, 0.5, 1, 2, 3} {
		for _, beta := range []float64{0, 0.5, 1} {
			configs = append(configs, config{p, beta})
		}
	}
	solve := func(c config, workers int) ([]float64, error) {
		tr, err := Blended(g, c.p, c.beta)
		if err != nil {
			return nil, err
		}
		res, err := e.solve(context.Background(), tr, Options{}, workers)
		if err != nil {
			return nil, err
		}
		return res.Scores, nil
	}
	want := make([][]float64, len(configs))
	for i, c := range configs {
		var err error
		if want[i], err = solve(c, 1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(configs))
	for i, c := range configs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := solve(c, 2)
			if err == nil && maxAbsDiff(got, want[i]) != 0 {
				err = fmt.Errorf("p=%g β=%g: concurrent solve differs from the serial one", c.p, c.beta)
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDanglingTargetThetaClamp(t *testing.T) {
	// Directed: 0→1, 0→2, 2→0; node 1 is a sink (outdeg 0) and must be
	// treated as Θ=1 rather than producing ±Inf factors.
	g, err := graph.FromEdges(graph.Directed, [][2]int32{{0, 1}, {0, 2}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{-3, 3} {
		if err := DegreeDecoupled(g, p).validate(1e-12); err != nil {
			t.Errorf("p=%v: %v", p, err)
		}
	}
	// At p=3, the sink (Θ clamped to 1) beats node 2 (outdeg 1)? Both Θ=1:
	// equal split.
	probs := DegreeDecoupled(g, 3).ProbsFrom(0)
	if math.Abs(probs[0]-0.5) > 1e-12 || math.Abs(probs[1]-0.5) > 1e-12 {
		t.Errorf("probs = %v, want equal split between Θ̂=1 destinations", probs)
	}
}

// validateProbs checks that probs, one probability per CSR arc of g, is
// column-stochastic: every node with out-arcs has probabilities summing to 1
// within tol, and every probability is finite and non-negative.
func validateProbs(g *graph.Graph, probs []float64, tol float64) error {
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		lo, hi := g.ArcRange(u)
		if hi == lo {
			continue
		}
		var sum float64
		for k := lo; k < hi; k++ {
			p := probs[k]
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return fmt.Errorf("arc %d has invalid probability %v", k, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("node %d out-probabilities sum to %v, want 1±%v", u, sum, tol)
		}
	}
	return nil
}

// validate is validateProbs over t's forward-order view.
func (t *Transition) validate(tol float64) error { return validateProbs(t.g, t.arcProbs(), tol) }

// naivePow returns the D2PR probabilities in forward order, evaluated with
// math.Pow and no log-space stabilization: the ablation partner of
// DegreeDecoupled. On hub-heavy graphs with large |p| its row sums overflow
// to ±Inf, or its terms to NaN, where the stable evaluation does not.
func naivePow(g *graph.Graph, p float64) []float64 {
	probs := make([]float64, g.NumArcs())
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		lo, hi := g.ArcRange(u)
		var sum float64
		for k := lo; k < hi; k++ {
			w := math.Pow(math.Max(g.WeightedDegree(g.ArcTarget(k)), 1), -p)
			probs[k] = w
			sum += w
		}
		inv := 1 / sum
		for k := lo; k < hi; k++ {
			probs[k] *= inv
		}
	}
	return probs
}

// rowBuiltProbs is the per-source-row forward build that arcModel replaced,
// kept as the reference whose arithmetic every forward view must reproduce
// bit for bit. With blend false it is D2PR with every source shifted; with
// blend true it is β·T_conn + (1−β)·T_D, staging the D2PR half in the output
// row (the unshifted evaluation wherever factorScale's gate passes, the
// shifted one elsewhere) and folding the connection half in place. It rounds
// each product before the following add or subtract, as arcModel.prob does,
// so that no platform fuses the pair into one FMA on one side only.
func rowBuiltProbs(g *graph.Graph, p, beta float64, blend bool) []float64 {
	n := g.NumNodes()
	logTheta := make([]float64, n)
	for v := range logTheta {
		logTheta[v] = math.Log(math.Max(g.WeightedDegree(int32(v)), 1))
	}
	factor := make([]float64, n)
	for v, lt := range logTheta {
		factor[v] = math.Exp(-p * lt)
	}
	conn := rowBuiltConnection(g)
	probs := make([]float64, g.NumArcs())
	for u := int32(0); int(u) < n; u++ {
		lo, hi := g.ArcRange(u)
		if hi == lo {
			continue
		}
		var sum float64
		for k := lo; k < hi; k++ {
			sum += factor[g.ArcTarget(k)]
		}
		if inv := 1 / sum; blend && sum > 0 && !math.IsInf(sum, 0) && !math.IsInf(inv, 0) {
			for k := lo; k < hi; k++ {
				probs[k] = factor[g.ArcTarget(k)] * inv
			}
		} else {
			maxE := math.Inf(-1)
			for k := lo; k < hi; k++ {
				maxE = math.Max(maxE, -p*logTheta[g.ArcTarget(k)])
			}
			var wsum float64
			for k := lo; k < hi; k++ {
				w := math.Exp(float64(-p*logTheta[g.ArcTarget(k)]) - maxE)
				probs[k] = w
				wsum += w
			}
			winv := 1 / wsum
			for k := lo; k < hi; k++ {
				probs[k] *= winv
			}
		}
		if !blend {
			continue
		}
		for k := lo; k < hi; k++ {
			probs[k] = float64(beta*conn[k]) + float64((1-beta)*probs[k])
		}
	}
	return probs
}

// rowBuiltConnection is the per-row connection-strength build: w/Σw, or
// 1/outdeg on a row whose weights sum to at most 0.
func rowBuiltConnection(g *graph.Graph) []float64 {
	probs := make([]float64, g.NumArcs())
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		lo, hi := g.ArcRange(u)
		var sum float64
		for k := lo; k < hi; k++ {
			sum += g.ArcWeight(k)
		}
		for k := lo; k < hi; k++ {
			if sum <= 0 {
				probs[k] = 1 / float64(hi-lo)
			} else {
				probs[k] = g.ArcWeight(k) / sum
			}
		}
	}
	return probs
}

// TestForwardViewsMatchRowBuilds pins every per-arc kind's forward-order
// view to the per-row arithmetic it replaced, bit for bit: D2PR's shifted
// view (factored and extreme p), β-blends, including ones where only some
// sources take the shifted form, and weighted connection strength.
func TestForwardViewsMatchRowBuilds(t *testing.T) {
	gs := oracleGraphs(t)
	gs["blend"] = blendTestGraph(t)
	gs["powerlaw"] = powerLawGraph(t, 400, 6, 5)
	for name, g := range gs {
		same := func(what string, got, want []float64) {
			t.Helper()
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s %s: arc %d = %v, row build %v", name, what, k, got[k], want[k])
				}
			}
		}
		if g.Weighted() {
			same("connection", ConnectionStrength(g).arcProbs(), rowBuiltConnection(g))
		}
		for _, p := range []float64{-400, -300, -4, -1.5, 0.5, 2.5, 300, 400} {
			same(fmt.Sprintf("d2pr(p=%g)", p), DegreeDecoupled(g, p).arcProbs(), rowBuiltProbs(g, p, 0, false))
			for _, beta := range []float64{0.25, 0.5, 0.75} {
				tr, err := Blended(g, p, beta)
				if err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("blend(p=%g,β=%g)", p, beta), tr.arcProbs(), rowBuiltProbs(g, p, beta, true))
			}
		}
	}
}

// TestOverflowingOutWeight: the graph builder accepts any finite weight, so
// a node's out-weight sum can overflow to Θ = +Inf, and then log Θ̂ = +Inf.
// At p < 0 that node's D2PR factor is +Inf: the factored form is refused,
// and every row that reaches the node has a shifted evaluation with shift
// +Inf, whose probabilities are NaN, as in the row build. Building, reading
// and solving these transitions, at β = 0 and in a blend, must not panic,
// and every view must be the row build, NaN for NaN and bit for bit
// elsewhere.
func TestOverflowingOutWeight(t *testing.T) {
	b := graph.NewBuilder(graph.Undirected).Weighted()
	b.AddWeightedEdge(0, 1, 1e308)
	b.AddWeightedEdge(0, 2, 1e308)
	for i := int32(1); i < 12; i++ {
		b.AddWeightedEdge(i, i+1, 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if th := g.WeightedDegree(0); !math.IsInf(th, 1) {
		t.Fatalf("Θ(0) = %v, want +Inf", th)
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for _, beta := range []float64{0, 0.5} {
		tr, err := Blended(g, -1, beta)
		if err != nil {
			t.Fatal(err)
		}
		if tr.kind == kindFactored {
			t.Fatalf("β=%g: an infinite factor was factored", beta)
		}
		want := rowBuiltProbs(g, -1, beta, beta > 0)
		for u := int32(0); int(u) < g.NumNodes(); u++ {
			lo, _ := g.ArcRange(u)
			for i, got := range tr.ProbsFrom(u) {
				if !same(got, want[lo+int64(i)]) {
					t.Fatalf("β=%g: ProbsFrom(%d)[%d] = %v, row build %v", beta, u, i, got, want[lo+int64(i)])
				}
			}
		}
		for _, e := range []*Engine{NewEngine(g), newEngineIdentity(g)} {
			f := e.flowOf(tr)
			for pos, w := range pullOrder(e, want) {
				if !same(f.probs[pos], w) {
					t.Fatalf("β=%g reordered=%v: pull position %d = %v, row build %v", beta, e.permOf != nil, pos, f.probs[pos], w)
				}
			}
			f.release(e)
		}
		if _, err := Solve(tr, Options{MaxIter: 5}); err != nil {
			t.Fatalf("β=%g: %v", beta, err)
		}
	}
}
