package core

import (
	"fmt"
	"math"
	"testing"

	"d2pr/internal/graph"
)

// The dense oracle is the tests' independent check on the transition itself.
// For a graph of at most 64 nodes it builds T as an n×n matrix straight from
// the paper's formulas, with none of the production builders' tables, gates
// or orderings:
//
//	T_D(v, u)    = Θ̂(v)^−p / Σ_{x ∈ out(u)} Θ̂(x)^−p   (Eq. 1, Θ̂ = max(Θ, 1))
//	T_conn(v, u) = w(u→v) / Σ_{x ∈ out(u)} w(u→x)
//	T(v, u)      = β·T_conn(v, u) + (1−β)·T_D(v, u)     (§3.2.3)
//
// Θ̂^−p is math.Pow for |p| ≤ 4. At p = ±400 the powers leave float64's
// range, so T_D is evaluated as exp(−p·log Θ̂(v) − lse(u)) with lse(u) the
// log-sum-exp of the row's exponents. The walk mass of a node without
// out-arcs goes to the teleport t, and (I − α·M)·r = (1−α)·t is solved by
// Gaussian elimination with partial pivoting.
//
// The certificate (certificate_test.go) evaluates the fixpoint through
// Transition.ProbsFrom, so it cannot see a wrong probability; the oracle can.
// It checks every ProbsFrom row and every engine answer, on a reordered and
// an identity engine.
const (
	// oracleProbTol bounds |P − T| per matrix entry at |p| ≤ 4, where the
	// oracle's powers and the builders' exponentials agree to a few ulps.
	oracleProbTol = 1e-13
	// oracleExtremeProbTol bounds |P − T| at p = ±400. Both sides round
	// exponents as large as |p·log Θ̂| ≈ 1,100 before subtracting the
	// row's shift, so an entry can be off by about 1,100 ulps of 1.
	oracleExtremeProbTol = 1e-12
	// oracleSolveTol is the engine's convergence tolerance. Its answer lies
	// within α/(1−α)·Tol ≈ 5.7e-13 of the fixpoint in L1.
	oracleSolveTol = 1e-13
	// oracleScoreTol bounds the L1 distance between the engine's answer and
	// the dense solve: the solve bound above plus the elimination's rounding.
	oracleScoreTol = 2e-12
)

// oracleTheta returns Θ̂(v) = max(Θ(v), 1), with Θ the out-weight (the
// out-degree on an unweighted graph), summed from the arcs.
func oracleTheta(g *graph.Graph) []float64 {
	theta := make([]float64, g.NumNodes())
	for u := range theta {
		lo, hi := g.ArcRange(int32(u))
		var s float64
		for k := lo; k < hi; k++ {
			s += g.ArcWeight(k)
		}
		theta[u] = math.Max(s, 1)
	}
	return theta
}

// oracleDecoupled returns the dense T_D for de-coupling weight p.
func oracleDecoupled(g *graph.Graph, p float64) [][]float64 {
	n := g.NumNodes()
	theta := oracleTheta(g)
	T := newDense(n)
	for u := int32(0); int(u) < n; u++ {
		nb := g.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		if math.Abs(p) <= 4 {
			var s float64
			for _, x := range nb {
				s += math.Pow(theta[x], -p)
			}
			for _, v := range nb {
				T[v][u] += math.Pow(theta[v], -p) / s
			}
			continue
		}
		top := math.Inf(-1)
		for _, x := range nb {
			top = math.Max(top, -p*math.Log(theta[x]))
		}
		var s float64
		for _, x := range nb {
			s += math.Exp(-p*math.Log(theta[x]) - top)
		}
		lse := top + math.Log(s)
		for _, v := range nb {
			T[v][u] += math.Exp(-p*math.Log(theta[v]) - lse)
		}
	}
	return T
}

// oracleConnection returns the dense T_conn; on an unweighted graph every
// weight is 1, so it is the uniform walk.
func oracleConnection(g *graph.Graph) [][]float64 {
	n := g.NumNodes()
	T := newDense(n)
	for u := int32(0); int(u) < n; u++ {
		lo, hi := g.ArcRange(u)
		var s float64
		for k := lo; k < hi; k++ {
			s += g.ArcWeight(k)
		}
		for k := lo; k < hi; k++ {
			T[g.ArcTarget(k)][u] += g.ArcWeight(k) / s
		}
	}
	return T
}

// oracleUniform returns the dense 1/outdeg walk, weights ignored.
func oracleUniform(g *graph.Graph) [][]float64 {
	n := g.NumNodes()
	T := newDense(n)
	for u := int32(0); int(u) < n; u++ {
		nb := g.Neighbors(u)
		for _, v := range nb {
			T[v][u] += 1 / float64(len(nb))
		}
	}
	return T
}

// oracleBlend returns β·T_conn + (1−β)·T_D.
func oracleBlend(g *graph.Graph, p, beta float64) [][]float64 {
	conn, dec := oracleConnection(g), oracleDecoupled(g, p)
	for v := range conn {
		for u := range conn[v] {
			conn[v][u] = beta*conn[v][u] + (1-beta)*dec[v][u]
		}
	}
	return conn
}

func newDense(n int) [][]float64 {
	T := make([][]float64, n)
	for v := range T {
		T[v] = make([]float64, n)
	}
	return T
}

// oracleSolve solves (I − α·M)·r = (1−α)·t, where M is T with the column of
// every node without out-arcs replaced by t.
func oracleSolve(g *graph.Graph, T [][]float64, alpha float64, tele []float64) []float64 {
	n := g.NumNodes()
	A := newDense(n)
	b := make([]float64, n)
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			m := T[v][u]
			if g.Degree(int32(u)) == 0 {
				m = tele[v]
			}
			A[v][u] = -alpha * m
		}
		A[v][v] += 1
		b[v] = (1 - alpha) * tele[v]
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[piv][col]) {
				piv = r
			}
		}
		A[col], A[piv] = A[piv], A[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < n; r++ {
			f := A[r][col] / A[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				A[r][c] -= f * A[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= A[r][c] * x[c]
		}
		x[r] = s / A[r][r]
	}
	return x
}

// oracleShiftedSources counts the non-dangling sources at which the
// unshifted D2PR evaluation fails at p: the sum of Θ̂^−p over the source's
// out-neighbours is zero, infinite, or has an infinite reciprocal.
func oracleShiftedSources(g *graph.Graph, p float64) (shifted, sources int) {
	theta := oracleTheta(g)
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		nb := g.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		sources++
		var s float64
		for _, x := range nb {
			s += math.Exp(-p * math.Log(theta[x]))
		}
		if !(s > 0) || math.IsInf(s, 0) || math.IsInf(1/s, 0) {
			shifted++
		}
	}
	return shifted, sources
}

// oracleGraphs are the oracle's graphs, each with one isolated node: an
// undirected graph with a hub of degree 15, its weighted twin with weights
// from 0.25 to 6 (so Θ̂ clamps on some nodes), and a directed graph with
// nodes that have no out-arcs but in-arcs (dangling targets), nodes that
// have out-arcs but no in-arcs, and a hub.
func oracleGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	const n = 41 // node 40 is isolated
	und := graph.NewBuilder(graph.Undirected).EnsureNodes(n)
	wtd := graph.NewBuilder(graph.Undirected).Weighted().EnsureNodes(n)
	add := func(u, v int32, w float64) {
		und.AddEdge(u, v)
		wtd.AddWeightedEdge(u, v, w)
	}
	for i := int32(1); i <= 15; i++ {
		add(7, (7+i*2)%40, 0.25+float64(i%4))
	}
	for i := int32(0); i < 40; i++ {
		add(i, (i+1)%40, 1+float64(i%5)/4)
	}
	for i := int32(0); i < 8; i++ {
		add(20+i, 38-i, 6)
	}
	dir := graph.NewBuilder(graph.Directed).EnsureNodes(n)
	for i := int32(0); i < 30; i++ {
		dir.AddEdge(i, (i+1)%30)
		dir.AddEdge(i, (i*7+3)%30)
	}
	for i := int32(0); i < 12; i++ {
		dir.AddEdge(5, 30+i%6) // 30–35 have no out-arcs
	}
	for i := int32(36); i < 40; i++ { // 36–39 have no in-arcs
		dir.AddEdge(i, 5)
		dir.AddEdge(i, 30+i%3)
	}
	gs := map[string]*graph.Graph{}
	for name, b := range map[string]*graph.Builder{"undirected": und, "weighted": wtd, "directed": dir} {
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		gs[name] = g
	}
	return gs
}

// oracleCase is one production transition and its dense counterpart.
type oracleCase struct {
	name    string
	tr      *Transition
	T       [][]float64
	probTol float64
}

// oracleCases builds every transition kind on g: the implicit uniform walk,
// factored D2PR, extreme-p D2PR (its shifted per-arc form), connection
// strength on a weighted graph, and β ∈ {0.25, 0.5} blends, one of them at a
// p where some sources take the shifted form and others do not.
func oracleCases(t *testing.T, g *graph.Graph) []oracleCase {
	t.Helper()
	cases := []oracleCase{{"uniform", Uniform(g), oracleUniform(g), oracleProbTol}}
	if g.Weighted() {
		cases = append(cases, oracleCase{"connection", ConnectionStrength(g), oracleConnection(g), oracleProbTol})
	}
	for _, p := range []float64{-2.5, 1, 4} {
		tr := DegreeDecoupled(g, p)
		if tr.rowFactor == nil {
			t.Fatalf("d2pr(p=%g) is not in factored form", p)
		}
		cases = append(cases, oracleCase{fmt.Sprintf("factored(p=%g)", p), tr, oracleDecoupled(g, p), oracleProbTol})
	}
	for _, p := range []float64{-400, 400} {
		tr := DegreeDecoupled(g, p)
		if tr.rowFactor != nil {
			t.Fatalf("d2pr(p=%g) is in factored form, want the shifted per-arc form", p)
		}
		cases = append(cases, oracleCase{fmt.Sprintf("extreme(p=%g)", p), tr, oracleDecoupled(g, p), oracleExtremeProbTol})
	}
	if shifted, sources := oracleShiftedSources(g, -400); shifted == 0 || shifted == sources {
		t.Fatalf("at p = -400, %d of %d sources take the shifted form; want some but not all", shifted, sources)
	}
	for _, beta := range []float64{0.25, 0.5} {
		for _, p := range []float64{-400, -1.5, 2} {
			tr, err := Blended(g, p, beta)
			if err != nil {
				t.Fatal(err)
			}
			tol := oracleProbTol
			if math.Abs(p) > 4 {
				tol = oracleExtremeProbTol
			}
			cases = append(cases, oracleCase{fmt.Sprintf("blend(p=%g,β=%g)", p, beta), tr, oracleBlend(g, p, beta), tol})
		}
	}
	return cases
}

// TestDenseOracle checks every transition kind's probabilities and solved
// scores against the dense oracle, on each oracle graph, with a uniform and
// a skewed teleport, on a reordered and an identity engine.
func TestDenseOracle(t *testing.T) {
	var worstProb, worstExtreme, worstScore float64
	for name, g := range oracleGraphs(t) {
		t.Run(name, func(t *testing.T) {
			n := g.NumNodes()
			reordered := NewEngine(g)
			if reordered.permOf == nil {
				t.Fatal("the reordered engine has the identity order")
			}
			engines := []struct {
				name string
				e    *Engine
			}{{"reordered", reordered}, {"identity", newEngineIdentity(g)}}
			skewed := make([]float64, n)
			for v := range skewed {
				skewed[v] = float64(1 + v%7)
			}
			for _, c := range oracleCases(t, g) {
				P := newDense(n)
				for u := int32(0); int(u) < n; u++ {
					lo, _ := g.ArcRange(u)
					for j, pr := range c.tr.ProbsFrom(u) {
						P[g.ArcTarget(lo+int64(j))][u] += pr
					}
				}
				for v := range P {
					for u := range P[v] {
						d := math.Abs(P[v][u] - c.T[v][u])
						if !(d <= c.probTol) {
							t.Fatalf("%s: P(%d→%d) = %v, oracle %v", c.name, u, v, P[v][u], c.T[v][u])
						}
						worst := &worstProb
						if c.probTol == oracleExtremeProbTol {
							worst = &worstExtreme
						}
						*worst = math.Max(*worst, d)
					}
				}
				for _, tele := range [][]float64{nil, skewed} {
					opts := Options{Tol: oracleSolveTol, Teleport: tele}
					want := oracleSolve(g, c.T, DefaultAlpha, normalizedTeleport(tele, n))
					for _, en := range engines {
						res, err := en.e.Solve(c.tr, opts)
						if err != nil {
							t.Fatalf("%s/%s: %v", c.name, en.name, err)
						}
						var l1 float64
						for v, x := range res.Scores {
							l1 += math.Abs(x - want[v])
						}
						if !(l1 <= oracleScoreTol) {
							t.Errorf("%s/%s/teleport=%v: L1 to the dense solve = %.3g, want ≤ %g",
								c.name, en.name, tele != nil, l1, oracleScoreTol)
						}
						worstScore = math.Max(worstScore, l1)
					}
				}
			}
		})
	}
	t.Logf("worst |P − T| = %.2g at |p| ≤ 4, %.2g at p = ±400; worst L1 to the dense solve = %.2g",
		worstProb, worstExtreme, worstScore)
}
