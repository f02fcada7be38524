// Package d2pr is the public façade of the degree de-coupled PageRank
// library — a complete Go reproduction of "PageRank Revisited: On the
// Relationship between Node Degrees and Node Significances in Different
// Applications" (Kim, Candan, Sapino; EDBT/ICDT 2016 Workshops).
//
// # The idea
//
// Conventional PageRank scores are tightly coupled to node degrees: on
// typical data graphs the Spearman correlation between PageRank ranks and
// degree ranks exceeds 0.85. In many applications that coupling is wrong —
// an actor with many movies may be a non-discriminating "B-movie" actor, a
// product with many comments is often a bad product. Degree de-coupled
// PageRank (D2PR) re-weights the random-walk transition by a per-destination
// factor deg(v)^-p:
//
//	p > 0  penalizes high-degree destinations,
//	p = 0  recovers conventional PageRank,
//	p < 0  boosts high-degree destinations.
//
// For weighted graphs, a second parameter β blends conventional
// connection-strength transitions with the degree-de-coupled ones.
//
// # Quick start
//
//	g, err := d2pr.NewBuilder(d2pr.Undirected).
//		AddEdge(0, 1).AddEdge(0, 2).AddEdge(1, 2).AddEdge(2, 3).
//		Build()
//	...
//	res, err := d2pr.Rank(g, d2pr.Params{P: 0.5})       // D2PR with p = 0.5
//	conv, err := d2pr.Rank(g, d2pr.Params{})            // conventional PageRank
//	rho := d2pr.Spearman(res.Scores, conv.Scores)
//
// Everything deeper — transitions, baselines, synthetic datasets, the
// experiment harness — is exported through the subpackage-aliased types
// below; see README.md for the architecture map.
package d2pr

import (
	"errors"
	"fmt"
	"math"

	"d2pr/internal/core"
	"d2pr/internal/graph"
	"d2pr/internal/stats"
)

// Graph kinds, re-exported from the graph substrate.
const (
	Undirected = graph.Undirected
	Directed   = graph.Directed
)

// Core graph types.
type (
	// Graph is an immutable CSR graph. Build one with NewBuilder.
	Graph = graph.Graph
	// Kind distinguishes directed from undirected graphs.
	Kind = graph.Kind
	// Builder accumulates edges and freezes them into a Graph.
	Builder = graph.Builder
	// WeightedEdge is a (u, v, w) triple for bulk construction.
	WeightedEdge = graph.WeightedEdge
	// Stats bundles the structural statistics of a graph (Table 3 of the
	// paper).
	Stats = graph.Stats
)

// Ranking types.
type (
	// Options configures the power-iteration solver (α, tolerance,
	// iteration cap, teleport vector).
	Options = core.Options
	// Result carries scores plus convergence diagnostics.
	Result = core.Result
	// Transition is a column-stochastic per-arc transition table.
	Transition = core.Transition
	// HITSResult carries hub and authority vectors.
	HITSResult = core.HITSResult
)

// NewBuilder returns a builder for a graph of the given kind.
func NewBuilder(kind Kind) *Builder { return graph.NewBuilder(kind) }

// FromEdges builds an unweighted graph from an edge list.
func FromEdges(kind Kind, edges [][2]int32) (*Graph, error) { return graph.FromEdges(kind, edges) }

// FromWeighted builds a weighted graph from a weighted edge list.
func FromWeighted(kind Kind, edges []WeightedEdge) (*Graph, error) {
	return graph.FromWeighted(kind, edges)
}

// ComputeStats returns the structural statistics of g, including the median
// standard deviation of neighbors' degrees from the paper's Table 3.
func ComputeStats(g *Graph) Stats { return graph.ComputeStats(g) }

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
	// over the given nodes (PPR-style contextualization).
	Seeds []int32
	// Options tunes the solver (α, tolerance, iteration cap). Zero values
	// mean the documented defaults (α = 0.85, tol = 1e-10, 500 iterations).
	Options Options
}

// Rank computes a D2PR-family ranking of g: D2PRBlended at params.P and
// params.Beta, with the teleport personalized when Seeds is set.
//
//   - Params{} is conventional PageRank on an unweighted graph. On a weighted
//     graph it is D2PR at p = 0, which ignores the weights; Params{Beta: 1}
//     is connection-strength PageRank there.
//   - Params{P: p} is the paper's D2PR with full de-coupling.
//   - Params{P: p, Beta: b} is the weighted blend of §3.2.3.
//   - Params{Seeds: ...} personalizes any of the above.
func Rank(g *Graph, params Params) (*Result, error) {
	opts := params.Options
	if len(params.Seeds) > 0 {
		tele := make([]float64, g.NumNodes())
		for _, s := range params.Seeds {
			if s < 0 || int(s) >= g.NumNodes() {
				return nil, fmt.Errorf("d2pr: seed %d out of range [0, %d)", s, g.NumNodes())
			}
			tele[s] = 1
		}
		opts.Teleport = tele
	}
	return core.D2PRBlended(g, params.P, params.Beta, opts)
}

// PageRank computes conventional PageRank (weighted graphs use connection
// strength).
func PageRank(g *Graph, opts Options) (*Result, error) { return core.PageRank(g, opts) }

// D2PR computes degree de-coupled PageRank with weight p (full de-coupling).
func D2PR(g *Graph, p float64, opts Options) (*Result, error) { return core.D2PR(g, p, opts) }

// D2PRBlended computes the weighted β-blend of §3.2.3.
func D2PRBlended(g *Graph, p, beta float64, opts Options) (*Result, error) {
	return core.D2PRBlended(g, p, beta, opts)
}

// PersonalizedPageRank computes seed-teleport PPR.
func PersonalizedPageRank(g *Graph, seeds []int32, opts Options) (*Result, error) {
	return core.PersonalizedPageRank(g, seeds, opts)
}

// HITS runs Kleinberg's hubs-and-authorities fixpoint.
func HITS(g *Graph, opts Options) (*HITSResult, error) { return core.HITS(g, opts) }

// DegreeCentrality returns degree/(n-1) for every node.
func DegreeCentrality(g *Graph) []float64 { return core.DegreeCentrality(g) }

// Spearman returns Spearman's rank correlation of the paired samples with
// average-rank tie handling — the agreement measure used throughout the
// paper's evaluation.
func Spearman(xs, ys []float64) float64 { return stats.Spearman(xs, ys) }

// Pearson returns the Pearson correlation of the paired samples.
func Pearson(xs, ys []float64) float64 { return stats.Pearson(xs, ys) }

// TopK returns the indices of the k largest scores in decreasing order.
func TopK(scores []float64, k int) []int { return stats.TopK(scores, k) }

// CompetitionRanks returns 1-based competition ranks (1 = best) for scores.
func CompetitionRanks(scores []float64) []int { return stats.CompetitionRanks(scores) }

// degreeVector returns float64 degrees, a convenience for correlation against
// rankings.
func degreeVector(g *Graph) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = float64(g.Degree(int32(i)))
	}
	return out
}

// DegreeCorrelation returns Spearman's ρ between the given scores and node
// degrees — the paper's Table-1 diagnostic for degree coupling.
func DegreeCorrelation(g *Graph, scores []float64) float64 {
	return stats.Spearman(scores, degreeVector(g))
}

// OptimalP sweeps p over [lo, hi] with the given step and returns the p
// whose D2PR ranking maximizes Spearman correlation with the significance
// vector, together with that correlation. It is the model-selection helper a
// recommender would run on held-out significance data (the paper's Figures
// 2–4 as an API call).
func OptimalP(g *Graph, significance []float64, lo, hi, step float64, opts Options) (bestP, bestRho float64, err error) {
	if step <= 0 || hi < lo {
		return 0, 0, errors.New("d2pr: OptimalP needs step > 0 and hi ≥ lo")
	}
	bestRho = math.Inf(-1)
	for p := lo; p <= hi+1e-12; p += step {
		res, err := core.D2PR(g, p, opts)
		if err != nil {
			return 0, 0, err
		}
		rho := stats.Spearman(res.Scores, significance)
		if rho > bestRho {
			bestRho, bestP = rho, p
		}
	}
	return bestP, bestRho, nil
}
