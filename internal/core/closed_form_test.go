package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"d2pr/internal/dataset"
	"d2pr/internal/graph"
)

// reversibleStationary returns the closed-form stationary distribution of
// the β ∈ {0, 1} D2PR walk on an undirected graph. At β = 1 the walk is the
// weighted random walk, stationary at π(u) ∝ W(u), the weighted degree. At
// β = 0 it moves u→v with probability Θ̂(v)^−p / S_p(u), where Θ̂ = max(W, 1)
// and S_p(u) = Σ_{x∈N(u)} Θ̂(x)^−p. That is the walk on the symmetric arc
// weights Θ̂(u)^−p·Θ̂(v)^−p, so it is reversible with π_p(u) ∝ Θ̂(u)^−p·S_p(u).
// The β = 0 form is evaluated in log space, so p = ±40 neither overflows nor
// underflows before the final normalization.
func reversibleStationary(g *graph.Graph, p, beta float64) []float64 {
	n := g.NumNodes()
	pi := make([]float64, n)
	if beta == 1 {
		for u := range pi {
			pi[u] = g.WeightedDegree(int32(u))
		}
	} else {
		e := make([]float64, n) // −p·log Θ̂
		for v := range e {
			e[v] = -p * math.Log(math.Max(g.WeightedDegree(int32(v)), 1))
		}
		logPi := make([]float64, n)
		top := math.Inf(-1)
		for u := range logPi {
			shift := math.Inf(-1)
			for _, x := range g.Neighbors(int32(u)) {
				shift = math.Max(shift, e[x])
			}
			var s float64
			for _, x := range g.Neighbors(int32(u)) {
				s += math.Exp(e[x] - shift)
			}
			logPi[u] = e[u] + shift + math.Log(s) // −Inf for an isolated node
			top = math.Max(top, logPi[u])
		}
		for u, l := range logPi {
			pi[u] = math.Exp(l - top)
		}
	}
	var sum float64
	for _, v := range pi {
		sum += v
	}
	for u := range pi {
		pi[u] /= sum
	}
	return pi
}

// closedFormCorpusGraph is a weighted undirected graph built to stress the
// closed form: two components, an isolated node (9), weights from 1e-3 to
// 1e3, and a node (4) whose weighted degree of 2e-3 clamps Θ̂ to 1.
func closedFormCorpusGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.NewBuilder(graph.Undirected).Weighted().EnsureNodes(10).
		AddWeightedEdge(0, 1, 1e3).AddWeightedEdge(0, 2, 1e-3).AddWeightedEdge(0, 3, 1).
		AddWeightedEdge(1, 2, 500).AddWeightedEdge(2, 3, 1e-2).
		AddWeightedEdge(3, 4, 1e-3).AddWeightedEdge(4, 0, 1e-3).
		AddWeightedEdge(5, 6, 1e3).AddWeightedEdge(6, 7, 1e-3).AddWeightedEdge(7, 5, 0.5).
		AddWeightedEdge(7, 8, 1e2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestClosedFormStationary checks every production solve path against
// reversibleStationary at β ∈ {0, 1}. With the teleport set to π, π is the
// fixpoint of r = α·T·r + (1−α)·π for every α. The solve starts at its
// teleport vector, that is at π, so the test checks the transition build
// (factored and per-arc), one sweep on identity and reordered engines with
// 1 and 4 workers, and materialization; it does not check
// convergence. A sweep that dropped all walk mass would return a multiple
// of π, which materialization renormalizes to π, so that one failure is
// invisible here.
func TestClosedFormStationary(t *testing.T) {
	type graphCase struct {
		name string
		g    *graph.Graph
		ps   []float64
	}
	var cases []graphCase
	for _, d := range dataset.AllGraphs(dataset.Config{Scale: 1}) {
		ps := []float64{-4, -1, 0.5, 1, 4}
		cases = append(cases,
			graphCase{d.Name + "/weighted", d.Weighted, ps},
			graphCase{d.Name + "/unweighted", d.Unweighted(), ps})
	}
	corpus := closedFormCorpusGraph(t)
	cases = append(cases,
		graphCase{"corpus/weighted", corpus, []float64{-40, 40}},
		graphCase{"corpus/unweighted", graph.StripWeights(corpus), []float64{-40, 40}})

	type namedEngine struct {
		name string
		e    *Engine
	}
	const tol = 1e-12
	var worst float64
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			engines := []namedEngine{{"reordered", EngineFor(c.g)}, {"identity", newEngineIdentity(c.g)}}
			// β = 1 ignores p, so it runs once.
			configs := [][2]float64{{0, 1}}
			for _, p := range c.ps {
				configs = append(configs, [2]float64{p, 0})
			}
			for _, pb := range configs {
				p, beta := pb[0], pb[1]
				pi := reversibleStationary(c.g, p, beta)
				blended, err := Blended(c.g, p, beta)
				if err != nil {
					t.Fatal(err)
				}
				check := func(path string, res *Result, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("p=%v β=%v %s: %v", p, beta, path, err)
					}
					var l1 float64
					for u, v := range res.Scores {
						l1 += math.Abs(v - pi[u])
					}
					if !(l1 <= tol) { // also catches NaN
						t.Errorf("p=%v β=%v %s: L1 to closed form = %.3g, want ≤ %g", p, beta, path, l1, tol)
					}
					worst = math.Max(worst, l1)
				}
				for _, en := range engines {
					for _, workers := range []int{1, 4} {
						opts := Options{Teleport: pi}
						res, err := en.e.solve(context.Background(), blended, opts, workers)
						check(fmt.Sprintf("%s/blended/workers=%d", en.name, workers), res, err)
						if beta == 0 {
							res, err := solveArcs(en.e, naivePow(c.g, p), opts, workers)
							check(fmt.Sprintf("%s/naive-pow/workers=%d", en.name, workers), res, err)
						}
					}
				}
			}
		})
	}
	t.Logf("worst L1 to the closed form: %.2g", worst)
}
