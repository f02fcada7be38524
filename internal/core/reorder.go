package core

import (
	"cmp"
	"slices"

	"d2pr/internal/graph"
)

// Locality-first node relabeling ("Gorder-lite").
//
// The pull sweep's only non-streaming access is the gather cur[src] /
// scaled[src] for every in-arc of every destination. On the power-law graphs
// this module targets, those gathers are dominated by a small set of hub
// nodes that every row touches, plus a community-local tail — but the
// builder's arbitrary node ids scatter both across the whole score array, so
// the gather working set is the entire vector.
//
// computeOrder relabels nodes so the sweep's working set is compact:
//
//   - Hub-seeded: BFS starts from the highest-total-degree node, so the
//     nodes touched from everywhere get the lowest new ids and the hot
//     prefix of the score array stays cache-resident across rows.
//   - BFS within components: each frontier expansion hands adjacent ids to
//     topological neighbors (over the union of out- and in-arcs, so directed
//     graphs cluster citers next to citees), which keeps a destination
//     block's sources inside a narrow id window.
//   - Degree-descending frontier expansion: within one node's neighborhood,
//     high-degree neighbors are labeled first, pulling secondary hubs toward
//     the front as well (the "lite" stand-in for Gorder's windowed
//     frequency maximization).
//   - Exhaustive seeding: remaining components are seeded in degree order,
//     so disconnected graphs are fully covered.
//
// The result is a permutation origOf with origOf[new] = old; nil is returned
// when the computed order is the identity (nothing to translate). The order
// is deterministic: ties break on ascending original id everywhere.
func computeOrder(g *graph.Graph) []int32 {
	n := g.NumNodes()
	if n < 2 {
		return nil
	}
	// An undirected graph stores every edge both ways, so its out-arcs are
	// its in-arcs; only a directed graph needs the transpose, released when
	// this function returns.
	var in *graph.Graph
	if g.Directed() {
		in = graph.Transpose(g)
	}
	deg := make([]int, n) // total degree, up to a factor of 2 when undirected
	for u := range deg {
		deg[u] = g.Degree(int32(u))
		if in != nil {
			deg[u] += in.Degree(int32(u))
		}
	}
	// Degree descending, id ascending on ties: a total order, so the
	// result does not depend on the sort algorithm.
	byDegree := func(a, b int32) int {
		if c := cmp.Compare(deg[b], deg[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	seeds := make([]int32, n)
	for i := range seeds {
		seeds[i] = int32(i)
	}
	slices.SortFunc(seeds, byDegree)

	visited := make([]bool, n)
	origOf := make([]int32, 0, n)
	var nbuf []int32 // per-expansion scratch for the degree-sorted frontier
	visit := func(vs []int32) {
		for _, v := range vs {
			if !visited[v] {
				visited[v] = true
				nbuf = append(nbuf, v)
			}
		}
	}
	head := 0
	for _, s := range seeds {
		if !visited[s] {
			visited[s] = true
			origOf = append(origOf, s)
		}
		for head < len(origOf) {
			u := origOf[head]
			head++
			nbuf = nbuf[:0]
			visit(g.Neighbors(u))
			if in != nil {
				visit(in.Neighbors(u))
			}
			slices.SortFunc(nbuf, byDegree)
			origOf = append(origOf, nbuf...)
		}
	}

	for i, v := range origOf {
		if int32(i) != v {
			return origOf
		}
	}
	return nil
}
