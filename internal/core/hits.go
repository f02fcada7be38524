package core

import (
	"context"
	"fmt"
	"math"

	"d2pr/internal/graph"
)

// HITSResult carries the hub and authority vectors of Kleinberg's HITS
// algorithm, each normalized to sum to 1.
type HITSResult struct {
	Hubs        []float64
	Authorities []float64
	Iterations  int
	Converged   bool
	Residual    float64
}

// HITS runs the hubs-and-authorities fixpoint on g:
//
//	auth(v) = Σ_{u→v} hub(u),   hub(u) = Σ_{u→v} auth(v)
//
// normalized each round, until the combined L1 change drops below opts.Tol
// or opts.MaxIter rounds elapse. Alpha and Teleport in opts are ignored —
// HITS has neither. On undirected graphs hubs and authorities coincide with
// the principal eigenvector of the adjacency (eigenvector centrality), which
// is the baseline role it plays here.
//
// ctx is polled once per round; a cancelled or expired context aborts the
// fixpoint with the context's error wrapped in round progress, as for the
// power-iteration solves.
func HITS(ctx context.Context, g *graph.Graph, opts Options) (*HITSResult, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	opts, err := opts.withDefaults(n)
	if err != nil {
		return nil, err
	}
	hub := make([]float64, n)
	auth := make([]float64, n)
	newHub := make([]float64, n)
	newAuth := make([]float64, n)
	u0 := 1 / float64(n)
	for i := range hub {
		hub[i] = u0
		auth[i] = u0
	}
	res := &HITSResult{}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: HITS aborted after %d/%d iterations: %w", res.Iterations, opts.MaxIter, err)
		}
		// auth update: push hub mass along arcs.
		for i := range newAuth {
			newAuth[i] = 0
		}
		for u := int32(0); int(u) < n; u++ {
			lo, hi := g.ArcRange(u)
			for k := lo; k < hi; k++ {
				w := g.ArcWeight(k)
				newAuth[g.ArcTarget(k)] += w * hub[u]
			}
		}
		normalizeL1(newAuth)
		// hub update: pull new authority mass along arcs.
		for i := range newHub {
			newHub[i] = 0
		}
		for u := int32(0); int(u) < n; u++ {
			lo, hi := g.ArcRange(u)
			var acc float64
			for k := lo; k < hi; k++ {
				acc += g.ArcWeight(k) * newAuth[g.ArcTarget(k)]
			}
			newHub[u] = acc
		}
		normalizeL1(newHub)

		var diff float64
		for i := 0; i < n; i++ {
			diff += math.Abs(newAuth[i]-auth[i]) + math.Abs(newHub[i]-hub[i])
		}
		auth, newAuth = newAuth, auth
		hub, newHub = newHub, hub
		res.Iterations = iter
		res.Residual = diff
		if diff < opts.Tol {
			res.Converged = true
			break
		}
	}
	res.Hubs = hub
	res.Authorities = auth
	return res, nil
}

// normalizeL1 scales xs to sum to 1; if the sum is zero it sets the uniform
// distribution (an isolated-nodes-only graph).
func normalizeL1(xs []float64) {
	var s float64
	for _, x := range xs {
		s += x
	}
	if s == 0 {
		u := 1 / float64(len(xs))
		for i := range xs {
			xs[i] = u
		}
		return
	}
	inv := 1 / s
	for i := range xs {
		xs[i] *= inv
	}
}
