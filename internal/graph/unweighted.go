package graph

// StripWeights returns an unweighted view of g: same nodes, same arcs, no
// weight array. The view shares the offsets/targets storage with g (both are
// immutable), so the call is O(1). It is how the paper's "unweighted graph"
// experiments reuse the weighted co-occurrence projections.
func StripWeights(g *Graph) *Graph {
	if g.weights == nil {
		return g
	}
	return &Graph{
		kind:     g.kind,
		offsets:  g.offsets,
		targets:  g.targets,
		weights:  nil,
		numEdges: g.numEdges,
	}
}

// CommonNeighborWeights returns a weighted view of the (undirected) graph g
// where every edge {u,v} is weighted by |N(u) ∩ N(v)| + 1. This is how the
// paper derives the weighted listener-listener graph ("edge weights denote
// the number of shared friends"); the +1 keeps weights positive for edges
// whose endpoints share no neighbor.
func CommonNeighborWeights(g *Graph) *Graph {
	n := g.NumNodes()
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	out := &Graph{
		kind:     g.kind,
		offsets:  g.offsets,
		targets:  g.targets,
		weights:  make([]float64, len(g.targets)),
		numEdges: g.numEdges,
	}
	for u := int32(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			mark[v] = u
		}
		lo, hi := g.offsets[u], g.offsets[u+1]
		for k := lo; k < hi; k++ {
			v := g.targets[k]
			shared := 0
			for _, w := range g.Neighbors(v) {
				if w != u && mark[w] == u {
					shared++
				}
			}
			out.weights[k] = float64(shared + 1)
		}
	}
	return out
}
