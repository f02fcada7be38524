package jobs

import (
	"context"
	"errors"
	"fmt"
	"time"

	"d2pr/internal/rankspec"
	"d2pr/internal/registry"
)

// AlgoPPR is the Status.Algo value reported by PPR-cohort jobs,
// distinguishing them from parameter sweeps in /v1/jobs listings.
const AlgoPPR = "ppr"

// PPRBatchSpec describes a personalized-ranking cohort: one forward-push
// solve per seed on one graph, all at the same α/ε/k. It is the batch face
// of /v1/{graph}/ppr — every computed top-k lands in the PPR cache, so
// warming a cohort of user seeds overnight makes the next morning's
// synchronous requests cache hits.
type PPRBatchSpec struct {
	// Graph names the registry entry to solve over.
	Graph string `json:"graph"`
	// Seeds lists the cohort's seed nodes. Required, duplicate-free; one
	// result row is produced per seed.
	Seeds []int32 `json:"seeds"`
	// Alpha, Epsilon, and K parameterize every solve in the cohort; zero
	// values select the serving defaults (core.DefaultAlpha,
	// core.DefaultPPREpsilon, rankspec.DefaultPPRK).
	Alpha   float64 `json:"alpha,omitempty"`
	Epsilon float64 `json:"eps,omitempty"`
	K       int     `json:"k,omitempty"`
}

// withDefaults returns a copy with zero parameters replaced by the serving
// defaults — the same defaults the synchronous endpoint applies, so a cohort
// row and a later plain GET share a cache key.
func (sp PPRBatchSpec) withDefaults() PPRBatchSpec {
	def := rankspec.NewPPR(sp.Graph, 0)
	if sp.Alpha == 0 {
		sp.Alpha = def.Alpha
	}
	if sp.Epsilon == 0 {
		sp.Epsilon = def.Epsilon
	}
	if sp.K == 0 {
		sp.K = def.K
	}
	return sp
}

// Validate checks the cohort after defaulting. Duplicate and negative seeds
// are rejected outright — a duplicate is almost certainly a caller bug
// (deduplicating silently would return fewer rows than seeds submitted), and
// the error names the offender so the caller can fix the list. Seed upper
// bounds need the materialized graph and are re-checked by ValidateWith.
func (sp PPRBatchSpec) Validate() error {
	sp = sp.withDefaults()
	if sp.Graph == "" {
		return fmt.Errorf("jobs: ppr cohort names no graph")
	}
	if len(sp.Seeds) == 0 {
		return fmt.Errorf("jobs: ppr cohort has no seeds")
	}
	if len(sp.Seeds) > MaxGridSize {
		return fmt.Errorf("jobs: ppr cohort of %d seeds exceeds max %d", len(sp.Seeds), MaxGridSize)
	}
	seen := make(map[int32]bool, len(sp.Seeds))
	for i, sd := range sp.Seeds {
		if sd < 0 {
			return fmt.Errorf("jobs: seed %d (position %d) is negative", sd, i)
		}
		if seen[sd] {
			return fmt.Errorf("jobs: duplicate seed %d (position %d) in cohort", sd, i)
		}
		seen[sd] = true
	}
	// One probe spec validates the shared α/ε/k ranges.
	probe := rankspec.PPRSpec{Graph: sp.Graph, Seed: sp.Seeds[0], Alpha: sp.Alpha, Epsilon: sp.Epsilon, K: sp.K}
	if err := probe.Validate(-1); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// ValidateWith performs the snapshot-dependent half of validation: seed
// upper bounds against the real node count.
func (sp PPRBatchSpec) ValidateWith(snap *registry.Snapshot) error {
	n := snap.Graph.NumNodes()
	for _, sd := range sp.Seeds {
		if int(sd) >= n {
			return fmt.Errorf("seed %d out of range for %d nodes", sd, n)
		}
	}
	return nil
}

// Expand materializes one PPRSpec per seed, in submission order.
func (sp PPRBatchSpec) Expand() []rankspec.PPRSpec {
	sp = sp.withDefaults()
	out := make([]rankspec.PPRSpec, len(sp.Seeds))
	for i, sd := range sp.Seeds {
		out[i] = rankspec.PPRSpec{Graph: sp.Graph, Seed: sd, Alpha: sp.Alpha, Epsilon: sp.Epsilon, K: sp.K}
	}
	return out
}

// SubmitPPR validates and enqueues a PPR cohort, returning the queued job's
// status. The cohort executes on the same worker pool, job table, TTL
// retention, and streaming plumbing as parameter sweeps; requestID is as in
// Submit.
func (m *Manager) SubmitPPR(spec PPRBatchSpec, requestID string) (Status, error) {
	if m.opts.PPRCache == nil {
		return Status{}, errors.New("jobs: manager has no PPR cache configured")
	}
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	specs := spec.Expand()
	return m.enqueue(&job{
		requestID: requestID, graph: spec.Graph, algo: AlgoPPR, total: len(specs),
		bind: func(snap *registry.Snapshot) (rowFunc, error) {
			if err := spec.ValidateWith(snap); err != nil {
				return nil, err
			}
			return m.pprRows(snap, specs), nil
		},
		skip: func(i int) ConfigResult {
			res := pprRow(specs[i])
			res.Skipped, res.Error = true, "cancelled"
			return res
		},
	})
}

// pprRow returns the identity of a cohort row: its config string and seed.
func pprRow(spec rankspec.PPRSpec) ConfigResult {
	return ConfigResult{Config: string(spec.CacheKey()), Seed: &spec.Seed, PPRSpec: &spec}
}

// pprRows binds a cohort's seeds to their snapshot. Row i solves specs[i]
// through the PPR cache, epoch-keyed like a sweep row, and expands the cached
// compact rows to full ranking entries (O(k)); the cache itself never stores
// degrees or ranks.
func (m *Manager) pprRows(snap *registry.Snapshot, specs []rankspec.PPRSpec) rowFunc {
	return func(ctx context.Context, i int) ConfigResult {
		started := time.Now()
		spec := specs[i]
		rows, st, err := rankspec.Solve(ctx, m.opts.PPRCache, m.opts.Telemetry, snap, spec.CacheKeyFor(snap), spec, nil)
		res := pprRow(spec)
		res.Cached = err == nil && st == nil
		if err != nil {
			res.Error = err.Error()
		} else {
			if st != nil {
				res.Pushes, res.Residual, res.Converged = st.Pushes, st.Residual, st.Converged
			}
			res.Top = rankspec.PPREntries(snap.Graph, rows)
		}
		res.ElapsedMs = time.Since(started).Seconds() * 1000
		return res
	}
}
