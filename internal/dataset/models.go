// Package dataset generates the synthetic data graphs used throughout the
// reproduction. The paper evaluates on four real datasets (IMDB+MovieLens,
// DBLP, Last.fm, Epinions), none of which can be downloaded in this offline
// module. The substitution is a planted-quality affiliation model
// (affiliation.go, with one configuration per paper graph in paper.go) that
// implements the paper's own causal story for why node degree and node
// significance relate differently across applications.
//
// The package also provides the Barabási–Albert and Chung–Lu random-graph
// models used as substrates in tests and benchmarks.
package dataset

import (
	"fmt"
	"math"

	"d2pr/internal/dataset/rng"
	"d2pr/internal/graph"
)

// BarabasiAlbert returns an undirected preferential-attachment graph: nodes
// arrive one at a time and connect to k existing nodes chosen proportionally
// to their current degree. The resulting degree distribution is a power law
// — the hub-dominated regime of the paper's Group-C graphs.
func BarabasiAlbert(n, k int, seed uint64) *graph.Graph {
	if k < 1 || n < k+1 {
		panic(fmt.Sprintf("dataset: BarabasiAlbert(%d, %d): need n > k ≥ 1", n, k))
	}
	r := rng.New(seed)
	b := graph.NewBuilder(graph.Undirected).EnsureNodes(n)
	// repeated-endpoints list implements preferential attachment in O(1).
	endpoints := make([]int32, 0, 2*n*k)
	// seed clique on the first k+1 nodes
	for u := int32(0); int(u) <= k; u++ {
		for v := u + 1; int(v) <= k; v++ {
			b.AddEdge(u, v)
			endpoints = append(endpoints, u, v)
		}
	}
	chosen := make(map[int32]struct{}, k)
	picks := make([]int32, 0, k)
	for u := int32(k + 1); int(u) < n; u++ {
		for id := range chosen {
			delete(chosen, id)
		}
		picks = picks[:0]
		// Collect picks in draw order (map iteration order is randomized
		// and would break seed determinism).
		for len(picks) < k {
			v := endpoints[r.Intn(len(endpoints))]
			if _, dup := chosen[v]; dup {
				continue
			}
			chosen[v] = struct{}{}
			picks = append(picks, v)
		}
		for _, v := range picks {
			b.AddEdge(u, v)
			endpoints = append(endpoints, u, v)
		}
	}
	return b.MustBuild()
}

// ChungLu returns an undirected random graph whose expected degrees follow
// the given weights: edge {u,v} exists with probability
// min(1, w_u·w_v / Σw). Heavy-tailed weight vectors produce hub-dominated
// graphs with tunable degree–identity coupling, which is how the Last.fm
// friendship graph is generated.
//
// The implementation sorts nodes by weight and uses the standard O(n+m)
// skipping algorithm (Miller–Hagberg) rather than the O(n²) naive loop.
func ChungLu(weights []float64, seed uint64) *graph.Graph {
	n := len(weights)
	r := rng.New(seed)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// sort by weight descending
	sortByWeightDesc(idx, weights)
	var total float64
	for _, w := range weights {
		total += w
	}
	b := graph.NewBuilder(graph.Undirected).EnsureNodes(n)
	if total <= 0 {
		return b.MustBuild()
	}
	for i := 0; i < n-1; i++ {
		wi := weights[idx[i]]
		if wi <= 0 {
			break
		}
		j := i + 1
		p := math.Min(1, wi*weights[idx[j]]/total)
		for j < n && p > 0 {
			if p < 1 {
				// geometric skip
				u := r.Float64()
				skip := int(math.Floor(math.Log(u) / math.Log(1-p)))
				if skip < 0 {
					skip = 0
				}
				j += skip
			}
			if j >= n {
				break
			}
			q := math.Min(1, wi*weights[idx[j]]/total)
			if r.Float64() < q/p {
				b.AddEdge(int32(idx[i]), int32(idx[j]))
			}
			p = q
			j++
		}
	}
	return b.MustBuild()
}

func sortByWeightDesc(idx []int, weights []float64) {
	// insertion of sort.Slice kept local to avoid importing sort twice
	quickSort(idx, func(a, b int) bool { return weights[a] > weights[b] })
}
