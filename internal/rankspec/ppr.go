package rankspec

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"d2pr/internal/core"
	"d2pr/internal/graph"
	"d2pr/internal/rankcache"
	"d2pr/internal/registry"
	"d2pr/internal/stats"
	"d2pr/internal/telemetry"
)

// MaxPPRK bounds the top-k size of a personalized request: a cached PPR
// result is O(k), and forward push concentrates mass near the seed, so very
// large k buys nothing a global ranking doesn't already serve.
const MaxPPRK = 4096

// DefaultPPRK is the top-k size used when a PPR request omits k.
const DefaultPPRK = 100

// PPRSpec is one fully-determined personalized-ranking configuration: a seed
// node on a graph, the push accuracy ε, and the result size k. Like Spec, it
// is the single source of the cache identity — the synchronous endpoint and
// the batch cohort path both derive the same cache key from the same
// PPRSpec, so a seed computed by a batch job is found by a later GET.
type PPRSpec struct {
	Graph   string  `json:"graph"`
	Seed    int32   `json:"seed"`
	Alpha   float64 `json:"alpha"`
	Epsilon float64 `json:"eps"`
	K       int     `json:"k"`
}

// NewPPR returns the default personalized configuration for a seed: the
// paper's α, the serving ε, and the default top-k.
func NewPPR(graphName string, seed int32) PPRSpec {
	return PPRSpec{
		Graph:   graphName,
		Seed:    seed,
		Alpha:   core.DefaultAlpha,
		Epsilon: core.DefaultPPREpsilon,
		K:       DefaultPPRK,
	}
}

// Validate checks parameter ranges. numNodes bounds the seed id; pass a
// negative value to skip the bound when the graph is not yet materialized
// (the check must then be repeated once it is).
func (s PPRSpec) Validate(numNodes int) error {
	if s.Seed < 0 || (numNodes >= 0 && int(s.Seed) >= numNodes) {
		return fmt.Errorf("seed %d out of range", s.Seed)
	}
	// Explicit non-finite rejection: the range comparisons below are all
	// false for NaN, so eps=NaN would otherwise pass validation, poison the
	// cache key ("e=NaN"), and cache a garbage top-k forever.
	if !isFinite(s.Alpha) {
		return fmt.Errorf("alpha %v is not finite", s.Alpha)
	}
	if !isFinite(s.Epsilon) {
		return fmt.Errorf("eps %v is not finite", s.Epsilon)
	}
	if s.Alpha <= 0 || s.Alpha >= 1 {
		return fmt.Errorf("alpha %v out of (0, 1)", s.Alpha)
	}
	if s.Epsilon <= 0 || s.Epsilon > 1e-2 {
		return fmt.Errorf("eps %v out of (0, 1e-2]", s.Epsilon)
	}
	if s.K <= 0 || s.K > MaxPPRK {
		return fmt.Errorf("k %d out of [1, %d]", s.K, MaxPPRK)
	}
	return nil
}

// CacheKey derives the PPR cache key. Every field is discriminating — there is
// nothing to canonicalize away: seed and graph pick the personalized vector,
// α and ε change its values, and k changes how much of it was kept.
func (s PPRSpec) CacheKey() rankcache.Key {
	return rankcache.Key(s.Graph +
		"|ppr|seed=" + strconv.Itoa(int(s.Seed)) +
		"|a=" + strconv.FormatFloat(s.Alpha, 'g', -1, 64) +
		"|e=" + strconv.FormatFloat(s.Epsilon, 'g', -1, 64) +
		"|k=" + strconv.Itoa(s.K))
}

// CacheKeyFor is CacheKey scoped to one materialized snapshot (see
// Spec.CacheKeyFor): cache operations key by epoch so a reload swap
// invalidates personalized results computed on the replaced graph.
func (s PPRSpec) CacheKeyFor(snap *registry.Snapshot) rankcache.Key {
	return EpochKey(s.CacheKey(), snap.Epoch)
}

// Compute runs the forward-push solve on the snapshot's graph and keeps the
// top-k scores. It routes through the snapshot's cached engine — the pull
// topology, the 1/outdeg table, and (for weighted graphs) the
// connection-strength transition are all shared with every other serving
// path — so a cache miss pays only the push itself plus the O(n + k·log k)
// top-k selection. ctx bounds the solve: the push loop polls it
// periodically and aborts with the context's error.
func (s PPRSpec) Compute(ctx context.Context, snap *registry.Snapshot) ([]PPRRow, error) {
	rows, _, err := s.ComputeStats(ctx, snap)
	return rows, err
}

// compute is the cached value Solve computes for a spec: its top-k rows.
func (s PPRSpec) compute(ctx context.Context, snap *registry.Snapshot) ([]PPRRow, telemetry.SolveStats, error) {
	return s.ComputeStats(ctx, snap)
}

// ComputeStats is Compute plus per-solve telemetry: push count, un-pushed
// residual mass (as Residual), and engine-build vs. solve wall-clock. The
// solve stage includes the O(n + k·log k) top-k selection.
func (s PPRSpec) ComputeStats(ctx context.Context, snap *registry.Snapshot) ([]PPRRow, telemetry.SolveStats, error) {
	st := telemetry.SolveStats{Algo: AlgoPPR, Converged: true}
	buildStart := time.Now()
	e := snap.Engine()
	st.EngineBuild = time.Since(buildStart)
	solveStart := time.Now()
	res, err := e.SolvePPRContext(ctx, e.Connection(), s.Seed, core.ForwardPushOptions{
		Alpha:   s.Alpha,
		Epsilon: s.Epsilon,
	})
	if err != nil {
		return nil, st, err
	}
	st.Pushes = res.Pushes
	st.Residual = res.ResidualMass
	rows := topPPREntries(res.Scores, s.K)
	st.Solve = time.Since(solveStart)
	return rows, st, nil
}

// topPPREntries keeps the k best (node, score) pairs in rank order, dropping
// zero-score tail nodes: a push solve leaves almost every node untouched, and
// an exact zero means "never reached", which is noise in a top-k table.
func topPPREntries(scores []float64, k int) []PPRRow {
	idx := stats.TopKHeap(scores, k)
	out := make([]PPRRow, 0, len(idx))
	for _, u := range idx {
		if scores[u] == 0 {
			break
		}
		out = append(out, PPRRow{Node: int32(u), Score: scores[u]})
	}
	return out
}

// PPREntries expands compact cached rows into full ranking-table rows,
// attaching rank numbers and degrees in O(k) — the reason the PPR cache
// stores only (node, score).
func PPREntries(g *graph.Graph, rows []PPRRow) []Entry {
	out := make([]Entry, len(rows))
	for i, r := range rows {
		out[i] = Entry{Rank: i + 1, Node: r.Node, Degree: g.Degree(r.Node), Score: r.Score}
	}
	return out
}
