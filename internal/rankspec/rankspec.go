// Package rankspec defines the canonical ranking configuration shared by the
// serving layer (internal/server) and the sweep-job subsystem (internal/jobs):
// one Spec names a graph, an algorithm, and its parameters, and knows how to
// derive its rankcache key and how to compute its score vector over a
// registry snapshot. Centralizing this plumbing guarantees that a score
// computed by a background job is found by a later synchronous request — both
// sides derive the identical cache identity from the identical Spec.
package rankspec

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"d2pr/internal/core"
	"d2pr/internal/graph"
	"d2pr/internal/rankcache"
	"d2pr/internal/registry"
	"d2pr/internal/stats"
	"d2pr/internal/telemetry"
)

// Supported algorithm names.
const (
	AlgoD2PR     = "d2pr"
	AlgoPageRank = "pagerank"
	AlgoHITS     = "hits"
	AlgoDegree   = "degree"
)

// Algos lists the supported algorithm names in documentation order.
func Algos() []string { return []string{AlgoD2PR, AlgoPageRank, AlgoHITS, AlgoDegree} }

// float32Mode is the process-wide score-tier toggle; see SetFloat32Mode.
var float32Mode atomic.Bool

// SetFloat32Mode switches the power-iteration serving algorithms (d2pr and
// pagerank) to the float32 score tier (core.Options.Float32): half the
// memory traffic per sweep in exchange for ~1e-6 absolute score error —
// far finer than any ranking consumer resolves, but a different contract
// than the float64 default, so it is an explicit operator opt-in
// (d2pr-server -float32). The mode is part of the cache identity: flipping
// it mid-flight changes the derived cache keys, so float64 and float32
// score vectors never alias one another.
func SetFloat32Mode(on bool) { float32Mode.Store(on) }

// Float32Mode reports whether the float32 score tier is active.
func Float32Mode() bool { return float32Mode.Load() }

// float32Applies reports whether the mode affects the given algorithm: only
// the engine-backed power-iteration paths have a float32 tier.
func float32Applies(algo string) bool {
	return algo == AlgoD2PR || algo == AlgoPageRank
}

// Spec is one fully-determined ranking configuration.
type Spec struct {
	Graph string  `json:"graph"`
	Algo  string  `json:"algo"`
	P     float64 `json:"p"`
	Beta  float64 `json:"beta"`
	Alpha float64 `json:"alpha"`
	// Seeds is the personalized-teleport node set; empty means uniform.
	Seeds []int32 `json:"seeds,omitempty"`
}

// New returns the default configuration for a graph: d2pr with p = β = 0
// (conventional PageRank behavior) at the paper's default α.
func New(graphName string) Spec {
	return Spec{Graph: graphName, Algo: AlgoD2PR, Alpha: core.DefaultAlpha}
}

// Validate checks parameter ranges. numNodes bounds the seed ids; pass a
// negative value to skip seed bounds checking when the graph is not yet
// materialized (the check must then be repeated once it is).
func (s Spec) Validate(numNodes int) error {
	switch s.Algo {
	case AlgoD2PR, AlgoPageRank, AlgoHITS, AlgoDegree:
	default:
		return fmt.Errorf("unknown algo %q (want %s)", s.Algo, strings.Join(Algos(), "|"))
	}
	// Non-finite parameters must be rejected explicitly: every range
	// comparison below is false for NaN, so without these checks alpha=NaN
	// sails through, poisons the cache key ("a=NaN"), and caches a NaN
	// score vector forever.
	if !isFinite(s.Alpha) {
		return fmt.Errorf("alpha %v is not finite", s.Alpha)
	}
	if !isFinite(s.Beta) {
		return fmt.Errorf("beta %v is not finite", s.Beta)
	}
	if !isFinite(s.P) {
		return fmt.Errorf("p %v is not finite", s.P)
	}
	if s.Alpha <= 0 || s.Alpha >= 1 {
		return fmt.Errorf("alpha %v out of (0, 1)", s.Alpha)
	}
	if s.Beta < 0 || s.Beta > 1 {
		return fmt.Errorf("beta %v out of [0, 1]", s.Beta)
	}
	for _, sd := range s.Seeds {
		if sd < 0 || (numNodes >= 0 && int(sd) >= numNodes) {
			return fmt.Errorf("seed %d out of range", sd)
		}
	}
	return nil
}

// Options returns the solver options for the spec (teleport built over n
// nodes). The serving compute path always parallelizes the edge sweep
// (Workers = -1, i.e. GOMAXPROCS): results are identical to the sequential
// sweep — each destination accumulates in the same order regardless of the
// partition — so only wall-clock changes, and Options.CacheKey excludes
// Workers, so cache identities are unaffected.
func (s Spec) Options(n int) core.Options {
	o := core.Options{Alpha: s.Alpha, Workers: -1}
	if float32Applies(s.Algo) && Float32Mode() {
		o.Float32 = true
	}
	if len(s.Seeds) > 0 {
		tele := make([]float64, n)
		for _, sd := range s.Seeds {
			tele[sd] = 1
		}
		o.Teleport = tele
	}
	return o
}

// CacheKey derives the rankcache key, canonicalizing parameters each
// algorithm ignores so equivalent configurations share one cache slot:
// p/β for everything but d2pr, p for d2pr at β = 1 (pure connection
// strength, which core.Blended builds without reading p), alpha and seeds
// additionally for HITS (which only reads Tol/MaxIter), and every solver
// option for degree centrality.
// The teleport component of Options.CacheKey depends on n, which is unknown
// before the graph loads; seeds are appended verbatim instead, which is
// strictly finer and therefore still correct.
func (s Spec) CacheKey() rankcache.Key {
	p, beta, alpha, seeds := s.P, s.Beta, s.Alpha, s.Seeds
	switch s.Algo {
	case AlgoDegree:
		return rankcache.NewKey(s.Graph, s.Algo, 0, 0, "")
	case AlgoHITS:
		p, beta, alpha, seeds = 0, 0, core.DefaultAlpha, nil
	case AlgoPageRank:
		p, beta = 0, 0
	case AlgoD2PR:
		if beta == 1 {
			p = 0
		}
	}
	o := core.Options{Alpha: alpha}
	if float32Applies(s.Algo) && Float32Mode() {
		o.Float32 = true
	}
	optsKey := o.CacheKey()
	if len(seeds) > 0 {
		parts := make([]string, len(seeds))
		for i, sd := range seeds {
			parts[i] = strconv.Itoa(int(sd))
		}
		optsKey += "|seeds=" + strings.Join(parts, ",")
	}
	return rankcache.NewKey(s.Graph, s.Algo, p, beta, optsKey)
}

// CacheKeyFor is CacheKey scoped to one materialized snapshot: the snapshot's
// epoch is appended, so scores computed against a replaced graph are never
// served after a reload swap — old-epoch entries simply age out of the LRU
// instead of being hunted down. Cache operations use this form; wire-visible
// config strings keep the epoch-less CacheKey so response shapes are stable
// across reloads.
func (s Spec) CacheKeyFor(snap *registry.Snapshot) rankcache.Key {
	return s.CacheKey() + rankcache.Key("|epoch="+strconv.FormatUint(snap.Epoch, 10))
}

// isFinite reports whether f is neither NaN nor ±Inf.
func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// Compute runs the configured algorithm on the snapshot's graph. Power-
// iteration algorithms run through the snapshot's cached engine, so a cache
// miss re-solves but never re-transposes the graph. ctx bounds the solve:
// power-iteration algorithms poll it once per iteration and abort with the
// context's error (HITS and degree centrality ignore it — the former is an
// ablation path, the latter is O(n) and cheaper than a solve iteration).
func (s Spec) Compute(ctx context.Context, snap *registry.Snapshot) ([]float64, error) {
	scores, _, err := s.ComputeStats(ctx, snap)
	return scores, err
}

// fillIterative copies an iterative solve's diagnostics into st.
func fillIterative(st *telemetry.SolveStats, res *core.Result) {
	st.Iterations = res.Iterations
	st.Residual = res.Residual
	st.Converged = res.Converged
}

// ComputeStats is Compute plus per-solve telemetry: which solver ran, how
// hard it worked (iterations, final residual), and where the wall-clock went
// (engine build vs. solve). The engine-build stage is ~0 whenever the
// snapshot's engine is already cached; the solve stage covers transition
// build, the iteration/push loop, and any selection work. AdmissionWait is
// left zero — queueing happens above this layer and is filled in by the
// caller that did the queueing.
func (s Spec) ComputeStats(ctx context.Context, snap *registry.Snapshot) ([]float64, telemetry.SolveStats, error) {
	g := snap.Graph
	opts := s.Options(g.NumNodes())
	st := telemetry.SolveStats{Algo: s.Algo}
	buildStart := time.Now()
	var eng *core.Engine
	switch s.Algo {
	case AlgoD2PR, AlgoPageRank:
		eng = snap.Engine()
	}
	st.EngineBuild = time.Since(buildStart)
	solveStart := time.Now()
	switch s.Algo {
	case AlgoD2PR:
		t, err := core.Blended(g, s.P, s.Beta)
		if err != nil {
			return nil, st, err
		}
		res, err := eng.SolveContext(ctx, t, opts)
		if err != nil {
			return nil, st, err
		}
		fillIterative(&st, res)
		st.Solve = time.Since(solveStart)
		return res.Scores, st, nil
	case AlgoPageRank:
		res, err := eng.SolveContext(ctx, core.ConnectionStrength(g), opts)
		if err != nil {
			return nil, st, err
		}
		fillIterative(&st, res)
		st.Solve = time.Since(solveStart)
		return res.Scores, st, nil
	case AlgoHITS:
		res, err := core.HITS(g, opts)
		if err != nil {
			return nil, st, err
		}
		st.Iterations = res.Iterations
		st.Converged = res.Converged
		st.Solve = time.Since(solveStart)
		return res.Authorities, st, nil
	case AlgoDegree:
		scores := core.DegreeCentrality(g)
		st.Converged = true // O(n) direct computation; nothing to converge
		st.Solve = time.Since(solveStart)
		return scores, st, nil
	}
	return nil, st, fmt.Errorf("unknown algo %q", s.Algo)
}

// Gate runs on a cache miss before the compute, under the solve context. It
// returns what to release once the compute ends and how long it waited for
// the slot; its error fails the solve without counting as a solve error.
type Gate func(ctx context.Context, graph string) (release func(), wait time.Duration, err error)

// Solve resolves spec through cache under key (spec's CacheKeyFor(snap)): a
// hit or a piggyback on an in-flight solve returns nil stats, and a miss runs
// gate (if non-nil), then spec.ComputeStats, and returns the solve's stats.
// The compute reports to tel itself, so a solve every requester abandoned is
// still counted: its stats, with the gate's wait, go to RecordSolve, and only
// the spec's own error reaches RecordSolveError.
func Solve[V any, S interface {
	ComputeStats(context.Context, *registry.Snapshot) (V, telemetry.SolveStats, error)
}](ctx context.Context, cache *rankcache.Cache[V], tel *telemetry.Registry, snap *registry.Snapshot, key rankcache.Key, spec S, gate Gate) (V, *telemetry.SolveStats, error) {
	// probe is written inside the compute and read only when this call led a
	// successful solve: the cache's done-channel close orders that write
	// before Get returns, whereas after a hit, a piggyback or an error an
	// abandoned compute may still be running.
	var probe telemetry.SolveStats
	val, cached, err := cache.Get(ctx, key, func(solveCtx context.Context) (V, error) {
		var wait time.Duration
		if gate != nil {
			release, w, err := gate(solveCtx, snap.Name)
			if err != nil {
				var zero V
				return zero, err
			}
			defer release()
			wait = w
		}
		v, st, err := spec.ComputeStats(solveCtx, snap)
		if err != nil {
			tel.RecordSolveError(snap.Name)
			return v, err
		}
		st.AdmissionWait = wait
		tel.RecordSolve(snap.Name, st)
		probe = st
		return v, nil
	})
	if err != nil || cached {
		return val, nil, err
	}
	return val, &probe, nil
}

// Entry is one row of a top-k ranking table.
type Entry struct {
	Rank   int     `json:"rank"`
	Node   int32   `json:"node"`
	Degree int     `json:"degree"`
	Score  float64 `json:"score"`
}

// DegreeVector materializes per-node degrees as floats — the reference
// vector for the paper's ranking-vs-degree Spearman diagnostic, shared by
// /correlate and the sweep subsystem.
func DegreeVector(g *graph.Graph) []float64 {
	deg := make([]float64, g.NumNodes())
	for i := range deg {
		deg[i] = float64(g.Degree(int32(i)))
	}
	return deg
}

// TopEntries extracts the k best rows with the bounded-heap selector — the
// full score vector is never sorted, so k ≪ n queries stay O(n log k).
func TopEntries(g *graph.Graph, scores []float64, k int) []Entry {
	idx := stats.TopKHeap(scores, k)
	out := make([]Entry, len(idx))
	for i, u := range idx {
		out[i] = Entry{
			Rank: i + 1, Node: int32(u), Degree: g.Degree(int32(u)), Score: scores[u],
		}
	}
	return out
}
