package core

import (
	"context"
	"fmt"

	"d2pr/internal/dataset/rng"
	"d2pr/internal/graph"
)

// DegreeCentrality returns the degree of every node divided by (n-1), the
// textbook normalization. It is the paper's "Factor 2" in isolation and the
// simplest baseline significance measure.
func DegreeCentrality(g *graph.Graph) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	if n <= 1 {
		return out
	}
	den := float64(n - 1)
	for u := 0; u < n; u++ {
		out[u] = float64(g.Degree(int32(u))) / den
	}
	return out
}

// ClosenessCentrality returns harmonic closeness centrality for every node:
// c(u) = Σ_{v≠u} 1/dist(u,v), normalized by (n-1). Harmonic closeness
// handles disconnected graphs gracefully (unreachable pairs contribute 0).
//
// If samples > 0 and samples < n, centrality is estimated by running BFS
// from `samples` uniformly chosen source nodes and rescaling — the standard
// trick for graphs where exact all-pairs BFS is too slow. seed drives source
// selection.
func ClosenessCentrality(g *graph.Graph, samples int, seed uint64) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	if n <= 1 {
		return out
	}
	sources := make([]int32, 0, n)
	if samples <= 0 || samples >= n {
		for u := 0; u < n; u++ {
			sources = append(sources, int32(u))
		}
	} else {
		r := rng.New(seed)
		perm := r.Perm(n)
		for _, u := range perm[:samples] {
			sources = append(sources, int32(u))
		}
	}
	// Harmonic closeness accumulates over sources: dist(s,u) from BFS at s
	// contributes 1/dist to u (using the reverse orientation for directed
	// graphs would give "reachability from"; we use forward BFS, measuring
	// how closely u is reached, which matches in-link prestige).
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for _, s := range sources {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(u) {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for u := 0; u < n; u++ {
			if dist[u] > 0 {
				out[u] += 1 / float64(dist[u])
			}
		}
	}
	scale := float64(n) / float64(len(sources)) / float64(n-1)
	for u := range out {
		out[u] *= scale
	}
	return out
}

// Betweenness returns exact betweenness centrality via Brandes' algorithm
// (unweighted shortest paths). For undirected graphs the conventional 1/2
// factor is applied. Cost is O(n·m); use BetweennessSampled on large graphs.
func Betweenness(g *graph.Graph) []float64 {
	n := g.NumNodes()
	sources := make([]int32, n)
	for i := range sources {
		sources[i] = int32(i)
	}
	return brandes(g, sources, 1)
}

// BetweennessSampled estimates betweenness centrality from `samples` random
// pivot sources (Brandes–Pich style), rescaling by n/samples. seed drives
// pivot selection.
func BetweennessSampled(g *graph.Graph, samples int, seed uint64) []float64 {
	n := g.NumNodes()
	if samples <= 0 || samples >= n {
		return Betweenness(g)
	}
	r := rng.New(seed)
	perm := r.Perm(n)
	sources := make([]int32, samples)
	for i := 0; i < samples; i++ {
		sources[i] = int32(perm[i])
	}
	return brandes(g, sources, float64(n)/float64(samples))
}

// brandes runs the dependency-accumulation phase of Brandes' algorithm from
// the given sources, scaling each accumulated dependency by scale.
func brandes(g *graph.Graph, sources []int32, scale float64) []float64 {
	n := g.NumNodes()
	bc := make([]float64, n)
	if n == 0 {
		return bc
	}
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	preds := make([][]int32, n)
	order := make([]int32, 0, n)
	queue := make([]int32, 0, n)

	for _, s := range sources {
		for i := 0; i < n; i++ {
			dist[i] = -1
			sigma[i] = 0
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		dist[s] = 0
		sigma[s] = 1
		order = order[:0]
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			order = append(order, u)
			for _, v := range g.Neighbors(u) {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], u)
				}
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, u := range preds[w] {
				delta[u] += sigma[u] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				bc[w] += delta[w] * scale
			}
		}
	}
	if !g.Directed() {
		for i := range bc {
			bc[i] /= 2
		}
	}
	return bc
}

// EigenvectorCentrality returns the principal-eigenvector centrality of g by
// power iteration on the (weighted) adjacency, L1-normalized. On bipartite
// or periodic structures plain adjacency iteration can oscillate; a 1/2 lazy
// self-loop is mixed in to guarantee convergence.
func EigenvectorCentrality(g *graph.Graph, opts Options) ([]float64, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	opts, err := opts.withDefaults(n)
	if err != nil {
		return nil, err
	}
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = 1 / float64(n)
	}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		for i := range next {
			next[i] = 0.5 * cur[i] // lazy component
		}
		for u := int32(0); int(u) < n; u++ {
			lo, hi := g.ArcRange(u)
			for k := lo; k < hi; k++ {
				next[g.ArcTarget(k)] += 0.5 * g.ArcWeight(k) * cur[u]
			}
		}
		normalizeL1(next)
		var diff float64
		for i := 0; i < n; i++ {
			d := next[i] - cur[i]
			if d < 0 {
				d = -d
			}
			diff += d
		}
		cur, next = next, cur
		if diff < opts.Tol {
			return cur, nil
		}
	}
	return cur, nil
}

// CentralityByName looks up a baseline centrality by its CLI name. It exists
// so cmd/d2pr and the benches share one registry.
func CentralityByName(g *graph.Graph, name string, opts Options) ([]float64, error) {
	switch name {
	case "degree":
		return DegreeCentrality(g), nil
	case "closeness":
		return ClosenessCentrality(g, 0, 1), nil
	case "betweenness":
		return Betweenness(g), nil
	case "eigenvector":
		return EigenvectorCentrality(g, opts)
	case "hits":
		h, err := HITS(context.Background(), g, opts)
		if err != nil {
			return nil, err
		}
		return h.Authorities, nil
	case "pagerank":
		r, err := Rank(g, Params{Beta: 1, Options: opts})
		if err != nil {
			return nil, err
		}
		return r.Scores, nil
	default:
		return nil, fmt.Errorf("core: unknown centrality %q", name)
	}
}
