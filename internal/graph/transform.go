package graph

// Transpose returns the graph with every arc reversed. For undirected graphs
// it returns a structural copy (transposition is a no-op), built fresh so the
// caller may rely on the result not aliasing g.
func Transpose(g *Graph) *Graph {
	n := g.NumNodes()
	t := &Graph{
		kind:     g.kind,
		offsets:  make([]int64, n+1),
		targets:  make([]int32, len(g.targets)),
		numEdges: g.numEdges,
	}
	if g.weights != nil {
		t.weights = make([]float64, len(g.weights))
	}
	for _, dst := range g.targets {
		t.offsets[dst+1]++
	}
	for u := 0; u < n; u++ {
		t.offsets[u+1] += t.offsets[u]
	}
	cursor := make([]int64, n)
	copy(cursor, t.offsets[:n])
	for u := int32(0); int(u) < n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for k := lo; k < hi; k++ {
			dst := g.targets[k]
			pos := cursor[dst]
			cursor[dst]++
			t.targets[pos] = u
			if t.weights != nil {
				t.weights[pos] = g.weights[k]
			}
		}
	}
	return t
}

// ConnectedComponents returns, for each node, the id of its weakly connected
// component, plus the number of components. Component ids are dense and
// assigned in order of the smallest node id in the component.
func ConnectedComponents(g *Graph) (comp []int32, count int) {
	n := g.NumNodes()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	// For directed graphs we need union over both directions; build the
	// transpose once.
	var rev *Graph
	if g.kind == Directed {
		rev = Transpose(g)
	}
	var stack []int32
	next := int32(0)
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		id := next
		next++
		count++
		comp[s] = id
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.Neighbors(u) {
				if comp[v] == -1 {
					comp[v] = id
					stack = append(stack, v)
				}
			}
			if rev != nil {
				for _, v := range rev.Neighbors(u) {
					if comp[v] == -1 {
						comp[v] = id
						stack = append(stack, v)
					}
				}
			}
		}
	}
	return comp, count
}

// ProjectBipartite builds the co-occurrence projection the paper's data
// graphs are made of. Input: membership lists, one per "container" (movie,
// article, product, ...), each listing the member entities (actors, authors,
// commenters, ...). Two entities are connected iff they share at least one
// container; the edge weight is the number of shared containers. numEntities
// fixes the node count (entities with no co-memberships become isolated
// nodes). The projection is undirected and weighted.
//
// Containers larger than maxContainer are skipped entirely when
// maxContainer > 0: enormous containers generate quadratically many edges and
// real pipelines routinely cap them; the paper's IMDB/DBLP projections do the
// equivalent by construction.
func ProjectBipartite(numEntities int, containers [][]int32, maxContainer int) (*Graph, error) {
	b := NewBuilder(Undirected).Weighted().EnsureNodes(numEntities)
	for _, members := range containers {
		if maxContainer > 0 && len(members) > maxContainer {
			continue
		}
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				u, v := members[i], members[j]
				if u == v {
					continue
				}
				if u > v {
					u, v = v, u
				}
				b.AddWeightedEdge(u, v, 1)
			}
		}
	}
	return b.Build()
}
