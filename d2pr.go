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
// connection-strength transitions with the degree-de-coupled ones, and a
// seed set personalizes the teleport vector. Rank is the one entry point:
// PageRank, D2PR, the β-blend and personalized PageRank are all Params
// values. A caller that ranks one graph many times, say over a p sweep,
// holds an Engine and calls its Rank.
//
// # Quick start
//
//	g, err := d2pr.NewBuilder(d2pr.Undirected).
//		AddEdge(0, 1).AddEdge(0, 2).AddEdge(1, 2).AddEdge(2, 3).
//		Build()
//	...
//	res, err := d2pr.Rank(g, d2pr.Params{P: 0.5})                 // D2PR with p = 0.5
//	conv, err := d2pr.Rank(g, d2pr.Params{})                      // conventional PageRank
//	conn, err := d2pr.Rank(g, d2pr.Params{Beta: 1})               // connection strength on weighted graphs
//	ppr, err := d2pr.Rank(g, d2pr.Params{Beta: 1, Seeds: []int32{0}}) // personalized PageRank
//	rho := d2pr.Spearman(res.Scores, conv.Scores)
//
// Everything deeper — transitions, baselines, synthetic datasets, the
// experiment harness — is exported through the subpackage-aliased types
// below; see README.md for the architecture map.
package d2pr

import (
	"context"
	"errors"
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
	// Params selects a member of the D2PR family for Rank: the de-coupling
	// weight p, the connection-strength blend β, optional teleport seeds and
	// the solver Options.
	Params = core.Params
	// Options configures the power-iteration solver (α, tolerance,
	// iteration cap, teleport vector).
	Options = core.Options
	// Result carries scores plus convergence diagnostics.
	Result = core.Result
	// Engine holds one graph's solver topology. Its Rank ranks the graph
	// without rebuilding it; build one with NewEngine.
	Engine = core.Engine
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

// Rank computes a D2PR-family ranking of g on an engine built for the one
// call; see core.Engine.Rank for what each Params shape selects. To rank one
// graph more than once, hold a NewEngine and call its Rank.
func Rank(g *Graph, params Params) (*Result, error) { return core.Rank(g, params) }

// NewEngine builds the solver topology of g: the O(m) transpose that every
// ranking of g reads. The engine belongs to the caller and is safe for
// concurrent use.
func NewEngine(g *Graph) *Engine { return core.NewEngine(g) }

// HITS runs Kleinberg's hubs-and-authorities fixpoint.
func HITS(g *Graph, opts Options) (*HITSResult, error) {
	return core.HITS(context.Background(), g, opts)
}

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

// OptimalP sweeps p over the grid lo + i·step in [lo, hi] and returns the p
// whose D2PR ranking maximizes Spearman correlation with the significance
// vector, together with that correlation. It is the model-selection helper a
// recommender would run on held-out significance data (the paper's Figures
// 2–4 as an API call).
func OptimalP(g *Graph, significance []float64, lo, hi, step float64, opts Options) (bestP, bestRho float64, err error) {
	if step <= 0 || hi < lo {
		return 0, 0, errors.New("d2pr: OptimalP needs step > 0 and hi ≥ lo")
	}
	eng := core.NewEngine(g)
	bestRho = math.Inf(-1)
	for i, last := 0, int((hi-lo)/step+1e-9); i <= last; i++ {
		p := lo + float64(i)*step
		res, err := eng.Rank(context.Background(), core.Params{P: p, Options: opts})
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
