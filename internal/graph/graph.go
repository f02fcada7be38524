// Package graph provides a compact compressed-sparse-row (CSR) graph store
// used by every random-walk computation in this module.
//
// A Graph is immutable once built. Construction goes through a Builder, which
// accepts edges in any order, deduplicates them if requested, and freezes the
// result into CSR arrays: one offsets array of length n+1 and one targets
// array of length m (plus a parallel weights array for weighted graphs).
// Immutability is what makes it safe to share one Graph between concurrently
// running rankers.
//
// Directedness is a property of the Graph value. For undirected graphs the
// builder stores each edge in both directions, so deg(v) (the paper's notion
// of the number of edges at v) equals the out-degree in the CSR arrays and no
// special casing is needed by the ranking code.
package graph

import (
	"errors"
	"fmt"
	"math"
)

// Kind distinguishes directed from undirected graphs.
type Kind int

const (
	// Undirected graphs store every edge in both directions.
	Undirected Kind = iota
	// Directed graphs store edges exactly as added.
	Directed
)

// String returns "undirected" or "directed".
func (k Kind) String() string {
	if k == Directed {
		return "directed"
	}
	return "undirected"
}

// Graph is an immutable CSR graph. The zero value is an empty undirected
// graph with no nodes.
type Graph struct {
	kind Kind
	// offsets has length n+1; the out-neighbors of node u are
	// targets[offsets[u]:offsets[u+1]].
	offsets []int64
	targets []int32
	// weights is nil for unweighted graphs, otherwise parallel to targets.
	weights []float64
	// numEdges is the logical edge count: for undirected graphs this is
	// len(targets)/2 (plus self-loops which are stored once), for directed
	// graphs len(targets).
	numEdges int
}

// Kind reports whether the graph is directed or undirected.
func (g *Graph) Kind() Kind { return g.kind }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.kind == Directed }

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of logical edges: each undirected edge counts
// once even though it is stored twice.
func (g *Graph) NumEdges() int { return g.numEdges }

// NumArcs returns the number of stored arcs (directed adjacency entries).
// For undirected graphs NumArcs == 2*NumEdges - selfLoops.
func (g *Graph) NumArcs() int { return len(g.targets) }

// Degree returns the number of stored arcs leaving node u. For undirected
// graphs this is the degree in the paper's sense; for directed graphs it is
// the out-degree.
func (g *Graph) Degree(u int32) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// OutDegree is a synonym for Degree that reads better on directed graphs.
func (g *Graph) OutDegree(u int32) int { return g.Degree(u) }

// Neighbors returns the out-neighbor slice of node u. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(u int32) []int32 {
	return g.targets[g.offsets[u]:g.offsets[u+1]]
}

// ArcRange returns the half-open range [lo, hi) of arc indices for node u.
// Arc indices index the flat Targets/Weights arrays; they are the natural
// key for per-edge transition probability tables.
func (g *Graph) ArcRange(u int32) (lo, hi int64) {
	return g.offsets[u], g.offsets[u+1]
}

// ArcTarget returns the destination of arc k.
func (g *Graph) ArcTarget(k int64) int32 { return g.targets[k] }

// ArcWeight returns the weight of arc k (1 for unweighted graphs).
func (g *Graph) ArcWeight(k int64) float64 {
	if g.weights == nil {
		return 1
	}
	return g.weights[k]
}

// WeightedDegree returns Θ(u): the sum of weights of arcs leaving u. For
// unweighted graphs it equals the degree.
func (g *Graph) WeightedDegree(u int32) float64 {
	if g.weights == nil {
		return float64(g.Degree(u))
	}
	lo, hi := g.offsets[u], g.offsets[u+1]
	var s float64
	for _, w := range g.weights[lo:hi] {
		s += w
	}
	return s
}

// HasEdge reports whether an arc u→v is stored. Cost is O(deg(u)).
func (g *Graph) HasEdge(u, v int32) bool {
	for _, t := range g.Neighbors(u) {
		if t == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of arc u→v and whether it exists. Parallel
// edges (if the builder allowed them) report the first stored weight.
func (g *Graph) EdgeWeight(u, v int32) (float64, bool) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	for k := lo; k < hi; k++ {
		if g.targets[k] == v {
			return g.ArcWeight(k), true
		}
	}
	return 0, false
}

// Degrees returns a fresh slice with the (out-)degree of every node.
func (g *Graph) Degrees() []int {
	n := g.NumNodes()
	d := make([]int, n)
	for u := 0; u < n; u++ {
		d[u] = g.Degree(int32(u))
	}
	return d
}

// InDegrees returns a fresh slice with the in-degree of every node. For
// undirected graphs in-degree equals degree.
func (g *Graph) InDegrees() []int {
	n := g.NumNodes()
	d := make([]int, n)
	for _, t := range g.targets {
		d[t]++
	}
	return d
}

// DanglingNodes returns the nodes with no outgoing arcs, in ascending order.
// These are the nodes whose random-walk mass must be redistributed.
func (g *Graph) DanglingNodes() []int32 {
	var out []int32
	for u := 0; u < g.NumNodes(); u++ {
		if g.Degree(int32(u)) == 0 {
			out = append(out, int32(u))
		}
	}
	return out
}

// TotalWeight returns the sum of all stored arc weights.
func (g *Graph) TotalWeight() float64 {
	if g.weights == nil {
		return float64(len(g.targets))
	}
	var s float64
	for _, w := range g.weights {
		s += w
	}
	return s
}

// String returns a short human-readable summary such as
// "undirected graph: 1892 nodes, 12717 edges".
func (g *Graph) String() string {
	return fmt.Sprintf("%s graph: %d nodes, %d edges", g.kind, g.NumNodes(), g.NumEdges())
}

// Validate checks internal consistency of the CSR arrays. It is primarily a
// testing aid; Builder.Build always produces a valid graph.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if len(g.offsets) == 0 {
		if len(g.targets) != 0 {
			return errors.New("graph: targets without offsets")
		}
		return nil
	}
	if g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	for u := 0; u < n; u++ {
		if g.offsets[u+1] < g.offsets[u] {
			return fmt.Errorf("graph: offsets not monotone at node %d", u)
		}
	}
	if g.offsets[n] != int64(len(g.targets)) {
		return fmt.Errorf("graph: offsets[n] = %d, want %d", g.offsets[n], len(g.targets))
	}
	for k, t := range g.targets {
		if t < 0 || int(t) >= n {
			return fmt.Errorf("graph: arc %d targets out-of-range node %d", k, t)
		}
	}
	if g.weights != nil {
		if len(g.weights) != len(g.targets) {
			return fmt.Errorf("graph: %d weights for %d arcs", len(g.weights), len(g.targets))
		}
		for k, w := range g.weights {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("graph: arc %d has invalid weight %v", k, w)
			}
		}
	}
	if g.kind == Undirected {
		// Every stored arc must have a mirror.
		in := g.InDegrees()
		for u := 0; u < n; u++ {
			if in[u] != g.Degree(int32(u)) {
				return fmt.Errorf("graph: undirected node %d has in-degree %d != degree %d", u, in[u], g.Degree(int32(u)))
			}
		}
	}
	return nil
}
