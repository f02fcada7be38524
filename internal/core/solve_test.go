package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"d2pr/internal/dataset/rng"
	"d2pr/internal/graph"
)

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func TestPageRankTwoNodeAnalytic(t *testing.T) {
	// 0 ↔ 1: symmetric, scores must both be 0.5 for any α.
	g, err := graph.FromEdges(graph.Undirected, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0.5, 0.85, 0.99} {
		res, err := PageRank(g, Options{Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("α=%v did not converge", alpha)
		}
		for i, s := range res.Scores {
			if math.Abs(s-0.5) > 1e-9 {
				t.Errorf("α=%v: score[%d] = %v, want 0.5", alpha, i, s)
			}
		}
	}
}

func TestPageRankDirectedCycleUniform(t *testing.T) {
	// Directed 4-cycle: perfect symmetry ⇒ uniform scores.
	g, err := graph.FromEdges(graph.Directed, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PageRank(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Scores {
		if math.Abs(s-0.25) > 1e-9 {
			t.Errorf("score[%d] = %v, want 0.25", i, s)
		}
	}
}

func TestPageRankStarAnalytic(t *testing.T) {
	// Directed star: k leaves all pointing at the center c, which is
	// dangling. With dangling mass redistributed to the uniform teleport:
	//   leaf = (1-α)/n + α·d/n,  center = leaf + α·k·leaf... solve directly
	// instead: verify against an independent fixed-point iteration done
	// longhand here.
	const k = 5
	b := graph.NewBuilder(graph.Directed)
	for v := int32(1); v <= k; v++ {
		b.AddEdge(v, 0)
	}
	g := b.MustBuild()
	res, err := PageRank(g, Options{Alpha: 0.85, Tol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	n := float64(k + 1)
	// Fixed point: leaf score x, center score y.
	// x = (1-α)/n + α·y_dangling_share = (1-α)/n + α·(y)/n  [dangling y spreads via teleport]
	// y = (1-α)/n + α·(k·x) + α·y/n
	// Solve the 2×2 system.
	alpha := 0.85
	// From symmetry all leaves equal; unknowns x (leaf), y (center):
	// x = (1-alpha)/n + alpha*y/n
	// y = (1-alpha)/n + alpha*y/n + alpha*k*x
	x := res.Scores[1]
	y := res.Scores[0]
	lhs1 := (1-alpha)/n + alpha*y/n
	lhs2 := (1-alpha)/n + alpha*y/n + alpha*float64(k)*x
	if math.Abs(x-lhs1) > 1e-9 || math.Abs(y-lhs2) > 1e-9 {
		t.Errorf("fixed point violated: x=%v (want %v), y=%v (want %v)", x, lhs1, y, lhs2)
	}
	if math.Abs(sumOf(res.Scores)-1) > 1e-12 {
		t.Errorf("sum = %v, want 1", sumOf(res.Scores))
	}
	for v := 2; v <= k; v++ {
		if math.Abs(res.Scores[v]-x) > 1e-12 {
			t.Errorf("leaf %d score %v differs from leaf 1 %v", v, res.Scores[v], x)
		}
	}
	if y <= x {
		t.Errorf("center %v must outrank leaves %v", y, x)
	}
}

func TestScoresSumToOneProperty(t *testing.T) {
	// Property: for random graphs (with dangling nodes and isolated nodes),
	// any D2PR score vector sums to 1 and is non-negative.
	f := func(seed int64, pRaw float64, directed bool) bool {
		r := rand.New(rand.NewSource(seed))
		p := math.Mod(pRaw, 4)
		if math.IsNaN(p) {
			p = 0
		}
		kind := graph.Undirected
		if directed {
			kind = graph.Directed
		}
		n := 2 + r.Intn(40)
		b := graph.NewBuilder(kind).EnsureNodes(n)
		for i := 0; i < 2*n; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.MustBuild()
		res, err := D2PR(g, p, Options{Tol: 1e-12})
		if err != nil {
			return false
		}
		if math.Abs(sumOf(res.Scores)-1) > 1e-9 {
			return false
		}
		for _, s := range res.Scores {
			if s < 0 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Error(err)
	}
}

func TestSolveEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(graph.Undirected).MustBuild()
	if _, err := PageRank(g, Options{}); err != ErrEmptyGraph {
		t.Errorf("err = %v, want ErrEmptyGraph", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	g, _ := graph.FromEdges(graph.Undirected, [][2]int32{{0, 1}})
	cases := []Options{
		{Alpha: -0.1},
		{Alpha: 1.0},
		{Alpha: math.NaN()},
		{Alpha: math.Inf(1)},
		{Alpha: math.Inf(-1)},
		{Tol: -1},
		{Tol: math.NaN()},
		{Tol: math.Inf(1)},
		{Tol: math.Inf(-1)},
		{MaxIter: -5},
		{Teleport: []float64{1}},             // wrong length
		{Teleport: []float64{-1, 2}},         // negative entry
		{Teleport: []float64{0, 0}},          // zero sum
		{Teleport: []float64{math.NaN(), 1}}, // invalid entry
	}
	for _, opts := range cases {
		if _, err := PageRank(g, opts); err == nil {
			t.Errorf("opts %+v: want error", opts)
		}
	}
}

func TestTeleportPersonalizationMovesMass(t *testing.T) {
	// Path 0-1-2-3-4; teleporting to node 0 must rank 0 first and decay
	// with distance.
	g, err := graph.FromEdges(graph.Undirected, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PersonalizedPageRank(g, []int32{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The seed's only neighbor aggregates mass from both sides and may
	// outrank the seed itself; the robust invariant is decay beyond it,
	// plus the seed dominating everything at distance ≥ 2.
	for i := 2; i < 5; i++ {
		if res.Scores[i-1] <= res.Scores[i] {
			t.Errorf("scores must decay with distance beyond the seed: %v", res.Scores)
			break
		}
	}
	if res.Scores[0] <= res.Scores[2] {
		t.Errorf("seed %v must outrank distance-2 node %v", res.Scores[0], res.Scores[2])
	}
	// Against the uniform-teleport baseline, the seed side must gain mass.
	base, err := PageRank(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[0] <= base.Scores[0] {
		t.Errorf("personalization must boost the seed: %v vs %v", res.Scores[0], base.Scores[0])
	}
}

func TestPPRSeedValidation(t *testing.T) {
	g, _ := graph.FromEdges(graph.Undirected, [][2]int32{{0, 1}})
	if _, err := PersonalizedPageRank(g, nil, Options{}); err == nil {
		t.Error("empty seeds must error")
	}
	if _, err := PersonalizedPageRank(g, []int32{7}, Options{}); err == nil {
		t.Error("out-of-range seed must error")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	b := graph.NewBuilder(graph.Directed).EnsureNodes(200)
	for i := 0; i < 2000; i++ {
		u, v := int32(r.Intn(200)), int32(r.Intn(200))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.MustBuild()
	seq, err := D2PR(g, 1.5, Options{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	par, err := D2PR(g, 1.5, Options{Tol: 1e-13, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Scores {
		if math.Abs(seq.Scores[i]-par.Scores[i]) > 1e-12 {
			t.Fatalf("node %d: seq %v par %v", i, seq.Scores[i], par.Scores[i])
		}
	}
}

func TestConvergenceDiagnostics(t *testing.T) {
	g, _ := graph.FromEdges(graph.Undirected, [][2]int32{{0, 1}, {1, 2}})
	res, err := PageRank(g, Options{MaxIter: 2, Tol: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("2 iterations at tol 1e-15 must not converge")
	}
	if res.Iterations != 2 {
		t.Errorf("iterations = %d, want 2", res.Iterations)
	}
	res2, err := PageRank(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged || res2.Residual >= DefaultTol {
		t.Errorf("default opts should converge: %+v", res2)
	}
}

func TestAlphaZeroIsTeleportOnly(t *testing.T) {
	// α is the zero value's sentinel, so pass an explicit tiny alpha: with
	// α≈0 every node's score approaches its teleport probability.
	g, _ := graph.FromEdges(graph.Undirected, [][2]int32{{0, 1}, {1, 2}})
	res, err := PageRank(g, Options{Alpha: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Scores {
		if math.Abs(s-1.0/3) > 1e-6 {
			t.Errorf("score[%d] = %v, want ≈1/3", i, s)
		}
	}
}

func TestDanglingMassConserved(t *testing.T) {
	// Directed chain 0→1→2; node 2 dangles. Scores must still sum to 1 and
	// node 2 must outrank node 1 (it receives 1's mass), which outranks 0.
	g, err := graph.FromEdges(graph.Directed, [][2]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PageRank(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sumOf(res.Scores)-1) > 1e-12 {
		t.Errorf("sum = %v, want 1", sumOf(res.Scores))
	}
	if !(res.Scores[2] > res.Scores[1] && res.Scores[1] > res.Scores[0]) {
		t.Errorf("expected monotone chain scores, got %v", res.Scores)
	}
}

func TestMonteCarloAgreesWithPowerIteration(t *testing.T) {
	g, err := graph.FromEdges(graph.Undirected, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 4}, {4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := Uniform(g)
	exact, err := Solve(tr, Options{Alpha: 0.85, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarloPageRank(tr, 0.85, 400000, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact.Scores {
		if math.Abs(exact.Scores[i]-mc[i]) > 0.01 {
			t.Errorf("node %d: exact %v, MC %v", i, exact.Scores[i], mc[i])
		}
	}
}

func TestMonteCarloPageRankValidation(t *testing.T) {
	g := pathGraph(3)
	if _, err := MonteCarloPageRank(Uniform(g), 1.2, 10, 1); err == nil {
		t.Error("alpha out of range must error")
	}
	empty := graph.NewBuilder(graph.Undirected).MustBuild()
	if _, err := MonteCarloPageRank(Uniform(empty), 0.5, 10, 1); err == nil {
		t.Error("empty graph must error")
	}
}

// MonteCarloPageRank estimates PageRank-style visit frequencies by simulating
// `walks` teleporting random walks of geometric length on the transition.
// It is the verification partner for the power-iteration solver: both must
// agree within Monte-Carlo error. alpha is the residual probability.
func MonteCarloPageRank(t *Transition, alpha float64, walks int, seed uint64) ([]float64, error) {
	g := t.g
	n := g.NumNodes()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("core: alpha %v out of range [0, 1)", alpha)
	}
	if walks <= 0 {
		walks = 100 * n
	}
	r := rng.New(seed)
	probs := t.arcProbs()
	visits := make([]float64, n)
	var total float64
	for w := 0; w < walks; w++ {
		u := int32(r.Intn(n))
		for {
			visits[u]++
			total++
			if r.Float64() >= alpha {
				break
			}
			v, ok := stepFrom(g, probs, u, r)
			if !ok {
				break // dangling: walk teleports (ends)
			}
			u = v
		}
	}
	if total > 0 {
		inv := 1 / total
		for i := range visits {
			visits[i] *= inv
		}
	}
	// Guard against pathological inputs where nothing was visited.
	if math.IsNaN(visits[0]) {
		return nil, fmt.Errorf("core: Monte-Carlo PageRank produced NaN")
	}
	return visits, nil
}

// stepFrom samples one transition out of u; ok is false for dangling nodes.
// probs is t's per-arc probability slice, hoisted by the caller so the
// per-step hot path does no lazy-materialization check.
func stepFrom(g *graph.Graph, probs []float64, u int32, r *rng.RNG) (int32, bool) {
	lo, hi := g.ArcRange(u)
	if lo == hi {
		return 0, false
	}
	x := r.Float64()
	var acc float64
	for k := lo; k < hi; k++ {
		acc += probs[k]
		if x < acc {
			return g.ArcTarget(k), true
		}
	}
	return g.ArcTarget(hi - 1), true
}
