package graph

import (
	"math"
	"sort"
)

// Stats summarizes the structural quantities the paper reports in Table 3 for
// each data graph, plus a few extras used elsewhere in the evaluation.
type Stats struct {
	Nodes int
	// Edges is the logical edge count (undirected edges count once).
	Edges int
	// AvgDegree is the mean (out-)degree over all nodes.
	AvgDegree float64
	// DegreeStdDev is the population standard deviation of node degrees.
	DegreeStdDev float64
	// MedianNeighborDegStdDev is the median, over nodes with at least one
	// neighbor, of the population standard deviation of the degrees of the
	// node's neighbors. The paper uses this quantity ("median standard
	// deviation of neighbors' node degrees") to explain why Group-B graphs
	// are p-sensitive for p<0 while Group-C graphs are not.
	MedianNeighborDegStdDev float64
	MinDegree               int
	MaxDegree               int
	Dangling                int
	SelfLoops               int
}

// ComputeStats computes the Table-3 statistics for g.
func ComputeStats(g *Graph) Stats {
	n := g.NumNodes()
	s := Stats{Nodes: n, Edges: g.NumEdges(), MinDegree: math.MaxInt}
	if n == 0 {
		s.MinDegree = 0
		return s
	}
	deg := g.Degrees()
	var sum, sumsq float64
	for u, d := range deg {
		sum += float64(d)
		sumsq += float64(d) * float64(d)
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d == 0 {
			s.Dangling++
		}
		for _, t := range g.Neighbors(int32(u)) {
			if int(t) == u {
				s.SelfLoops++
			}
		}
	}
	if g.kind == Undirected {
		// Mirrored arcs mean a self-loop is stored once, so the count is
		// already correct; nothing to halve.
	}
	mean := sum / float64(n)
	s.AvgDegree = mean
	variance := sumsq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	s.DegreeStdDev = math.Sqrt(variance)
	s.MedianNeighborDegStdDev = medianNeighborDegStdDev(g, deg)
	return s
}

// medianNeighborDegStdDev computes, for every node with degree ≥ 1, the
// standard deviation of its neighbors' degrees, and returns the median of
// those values.
func medianNeighborDegStdDev(g *Graph, deg []int) float64 {
	n := g.NumNodes()
	sds := make([]float64, 0, n)
	for u := 0; u < n; u++ {
		nb := g.Neighbors(int32(u))
		if len(nb) == 0 {
			continue
		}
		var sum, sumsq float64
		for _, t := range nb {
			d := float64(deg[t])
			sum += d
			sumsq += d * d
		}
		m := sum / float64(len(nb))
		v := sumsq/float64(len(nb)) - m*m
		if v < 0 {
			v = 0
		}
		sds = append(sds, math.Sqrt(v))
	}
	return Median(sds)
}

// Median returns the median of xs (average of the two middle elements for
// even lengths). It returns 0 for an empty slice and does not modify xs.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}

// TopDegreeNodes returns up to k node ids sorted by decreasing degree,
// breaking ties by ascending node id. It is used by the Table-2 experiment to
// pick the extreme-degree rows the paper shows.
func TopDegreeNodes(g *Graph, k int) []int32 {
	n := g.NumNodes()
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := g.Degree(ids[a]), g.Degree(ids[b])
		if da != db {
			return da > db
		}
		return ids[a] < ids[b]
	})
	if k > n {
		k = n
	}
	return ids[:k]
}

// BottomDegreeNodes returns up to k node ids with the smallest non-zero
// degree, sorted by ascending degree then ascending id.
func BottomDegreeNodes(g *Graph, k int) []int32 {
	n := g.NumNodes()
	ids := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if g.Degree(int32(i)) > 0 {
			ids = append(ids, int32(i))
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := g.Degree(ids[a]), g.Degree(ids[b])
		if da != db {
			return da < db
		}
		return ids[a] < ids[b]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}
