package core

import (
	"fmt"
	"math"

	"d2pr/internal/graph"
)

// PageRank computes conventional PageRank scores: uniform transitions for
// unweighted graphs, connection-strength transitions for weighted graphs
// (the paper's β = 1 case). It is exactly D2PR with p = 0 on unweighted
// graphs.
func PageRank(g *graph.Graph, opts Options) (*Result, error) {
	return Solve(ConnectionStrength(g), opts)
}

// D2PR computes the paper's degree de-coupled PageRank with de-coupling
// weight p on the (unweighted or weighted) graph g, with full de-coupling
// (β = 0): transition probabilities depend only on destination degrees Θ.
//
//   - p > 0 penalizes high-degree destinations (Application Group A),
//   - p = 0 reproduces classic unweighted PageRank (Group B),
//   - p < 0 boosts high-degree destinations (Group C).
func D2PR(g *graph.Graph, p float64, opts Options) (*Result, error) {
	return D2PRBlended(g, p, 0, opts)
}

// D2PRBlended computes weighted-graph D2PR per §3.2.3 of the paper:
// transitions are β·T_conn + (1-β)·T_D. β = 0 is full de-coupling, β = 1 is
// conventional weighted PageRank.
func D2PRBlended(g *graph.Graph, p, beta float64, opts Options) (*Result, error) {
	t, err := Blended(g, p, beta)
	if err != nil {
		return nil, err
	}
	return Solve(t, opts)
}

// PersonalizedPageRank computes PPR with the teleport distribution
// concentrated uniformly on the seed nodes. Duplicate seeds are counted
// once. An empty seed set is an error.
func PersonalizedPageRank(g *graph.Graph, seeds []int32, opts Options) (*Result, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: personalized PageRank needs at least one seed")
	}
	tele := make([]float64, n)
	for _, s := range seeds {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("core: seed %d out of range [0, %d)", s, n)
		}
		tele[s] = 1
	}
	opts.Teleport = tele
	return Solve(ConnectionStrength(g), opts)
}

// DegreeBiasedTeleport computes PageRank with an unchanged (conventional)
// transition matrix but a degree-dependent teleport distribution
// t(v) ∝ Θ̂(v)^-q — the alternative de-coupling mechanism of Bánky et al.
// (reference [2] of the paper), which boosts low-degree nodes through the
// teleport vector instead of the transition matrix. q > 0 boosts low-degree
// nodes, q < 0 boosts hubs, q = 0 is classic PageRank.
//
// It is the ablation partner of D2PR: same goal, different lever.
func DegreeBiasedTeleport(g *graph.Graph, q float64, opts Options) (*Result, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return nil, fmt.Errorf("core: invalid teleport bias q = %v", q)
	}
	// Build t(v) ∝ exp(-q log Θ̂(v)) in log-space, like the transition.
	logTheta := make([]float64, n)
	maxE := math.Inf(-1)
	for v := 0; v < n; v++ {
		th := g.WeightedDegree(int32(v))
		if th < 1 {
			th = 1
		}
		logTheta[v] = math.Log(th)
		if e := -q * logTheta[v]; e > maxE {
			maxE = e
		}
	}
	tele := make([]float64, n)
	for v := 0; v < n; v++ {
		tele[v] = math.Exp(-q*logTheta[v] - maxE)
	}
	opts.Teleport = tele
	return Solve(ConnectionStrength(g), opts)
}
