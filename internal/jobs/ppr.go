package jobs

import (
	"context"
	"errors"
	"fmt"
	"time"

	"d2pr/internal/pprcache"
	"d2pr/internal/rankcache"
	"d2pr/internal/rankspec"
	"d2pr/internal/registry"
	"d2pr/internal/telemetry"
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
// retention, and streaming plumbing as parameter sweeps.
func (m *Manager) SubmitPPR(spec PPRBatchSpec) (Status, error) {
	return m.SubmitPPRTraced(spec, "")
}

// SubmitPPRTraced is SubmitPPR with a request ID attached to the job record
// (see SubmitTraced).
func (m *Manager) SubmitPPRTraced(spec PPRBatchSpec, requestID string) (Status, error) {
	if m.opts.PPRCache == nil {
		return Status{}, errors.New("jobs: manager has no PPR cache configured")
	}
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		requestID: requestID,
		pprSpec:   &spec,
		pprSpecs:  spec.Expand(),
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		created:   time.Now(),
	}
	return m.enqueue(j)
}

// runPPR executes a cohort job: resolve the graph once, bound-check the
// seeds against it, then fan the seeds out over the shared worker pool.
func (m *Manager) runPPR(j *job) {
	snap, err := m.opts.Resolve(j.pprSpec.Graph)
	if err == nil {
		err = j.pprSpec.ValidateWith(snap)
	}
	if err != nil {
		m.finishJob(j, err.Error())
		return
	}
	m.fanOut(j, len(j.pprSpecs), func(i int) ConfigResult {
		spec := j.pprSpecs[i]
		if m.hookBeforePPRConfig != nil {
			m.hookBeforePPRConfig(spec)
		}
		return runPPRConfig(j.ctx, snap, spec, m.opts.PPRCache, m.opts.Telemetry)
	}, func(i int) ConfigResult {
		spec := j.pprSpecs[i]
		seed := spec.Seed
		return ConfigResult{Config: string(spec.CacheKey()), Seed: &seed, PPRSpec: &spec, Skipped: true, Error: "cancelled"}
	})
}

// runPPRConfig executes one seed through the PPR cache and builds its
// retained result row. ctx bounds this seed's wait and (if it is the last
// interested party) its solve. The cached compact rows are expanded to full
// ranking entries here (O(k)); the cache itself never stores degrees or
// ranks. tel, when non-nil, receives the push statistics from inside the
// compute closure; the probe is read only on the leader-success path, as in
// runConfig.
func runPPRConfig(ctx context.Context, snap *registry.Snapshot, spec rankspec.PPRSpec, cache *rankcache.Cache[[]pprcache.Entry], tel *telemetry.Registry) ConfigResult {
	started := time.Now()
	// Epoch-keyed like runConfig: the cache key carries the snapshot epoch,
	// the wire-visible Config string does not.
	key := spec.CacheKeyFor(snap)
	var probe telemetry.SolveStats
	rows, cached, err := cache.Get(ctx, key, func(solveCtx context.Context) ([]pprcache.Entry, error) {
		entries, st, cerr := spec.ComputeStats(solveCtx, snap)
		if cerr != nil {
			if tel != nil {
				tel.RecordSolveError(snap.Name)
			}
			return nil, cerr
		}
		if tel != nil {
			tel.RecordSolve(snap.Name, st)
		}
		probe = st
		return entries, nil
	})
	seed := spec.Seed
	res := ConfigResult{Config: string(spec.CacheKey()), Seed: &seed, PPRSpec: &spec, Cached: cached}
	if err != nil {
		res.Error = err.Error()
	} else {
		if !cached {
			res.Pushes = probe.Pushes
			res.Residual = probe.Residual
			res.Converged = probe.Converged
		}
		res.Top = rankspec.PPREntries(snap.Graph, rows)
	}
	res.ElapsedMs = time.Since(started).Seconds() * 1000
	return res
}
