package core

import (
	"context"
	"fmt"
	"math"

	"d2pr/internal/graph"
)

// Params selects a member of the D2PR family for Rank.
type Params struct {
	// P is the degree de-coupling weight. 0 (with Beta 0) is conventional
	// PageRank on unweighted graphs.
	P float64
	// Beta blends connection strength (β) with degree de-coupling (1-β) on
	// weighted graphs; it must lie in [0, 1]. On unweighted graphs β only
	// interpolates between two identical transitions when P = 0.
	Beta float64
	// Seeds, when non-empty, personalizes the teleport vector uniformly
	// over the given nodes (PPR-style contextualization); a node listed
	// twice counts once. It replaces Options.Teleport.
	Seeds []int32
	// Options tunes the solver (α, tolerance, iteration cap). Zero values
	// mean the documented defaults (α = 0.85, tol = 1e-10, 500 iterations).
	Options Options
}

// Rank computes a D2PR-family ranking of the engine's graph: power
// iteration on Blended(g, params.P, params.Beta), with the teleport
// personalized when Seeds is set. The paper's transition is
// T = β·T_conn + (1-β)·T_D at de-coupling weight p (§3.2.3), so every ranker
// of the family is one Params value:
//
//   - Params{} is conventional PageRank on an unweighted graph. On a weighted
//     graph it is D2PR at p = 0, which ignores the weights; Params{Beta: 1}
//     is connection-strength PageRank there.
//   - Params{P: p} is the paper's D2PR with full de-coupling: p > 0
//     penalizes high-degree destinations (Application Group A), p = 0
//     reproduces classic unweighted PageRank (Group B), and p < 0 boosts
//     high-degree destinations (Group C).
//   - Params{P: p, Beta: b} is the weighted blend of §3.2.3.
//   - Params{Beta: 1, Seeds: s} is personalized PageRank; Seeds personalizes
//     any of the above.
//
// ctx cancels the solve as in SolveContext.
func (e *Engine) Rank(ctx context.Context, params Params) (*Result, error) {
	opts := params.Options
	if len(params.Seeds) > 0 {
		tele := make([]float64, e.n)
		for _, s := range params.Seeds {
			if s < 0 || int(s) >= e.n {
				return nil, fmt.Errorf("core: seed %d out of range [0, %d)", s, e.n)
			}
			tele[s] = 1
		}
		opts.Teleport = tele
	}
	t, err := Blended(e.g, params.P, params.Beta)
	if err != nil {
		return nil, err
	}
	return e.SolveContext(ctx, t, opts)
}

// Rank ranks g once, on an engine built for the call; see Engine.Rank for
// what each Params shape selects. A caller that ranks one graph more than
// once holds a NewEngine instead, so the O(m) build is paid once.
func Rank(g *graph.Graph, params Params) (*Result, error) {
	return NewEngine(g).Rank(context.Background(), params)
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
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return nil, fmt.Errorf("core: invalid teleport bias q = %v", q)
	}
	// Build t(v) ∝ exp(-q log Θ̂(v)) in log-space, like the transition.
	logTheta := make([]float64, g.NumNodes())
	fillLogTheta(g, logTheta)
	maxE := math.Inf(-1)
	for _, lt := range logTheta {
		if e := -q * lt; e > maxE {
			maxE = e
		}
	}
	tele := make([]float64, len(logTheta))
	for v, lt := range logTheta {
		tele[v] = math.Exp(-q*lt - maxE)
	}
	opts.Teleport = tele
	return Rank(g, Params{Beta: 1, Options: opts})
}
