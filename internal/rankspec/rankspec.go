// Package rankspec defines the canonical ranking configuration shared by the
// serving layer (internal/server) and the sweep-job subsystem (internal/jobs):
// one Spec names a graph, an algorithm, and its parameters, and knows how to
// derive its rankcache key and how to compute its score vector over a
// registry snapshot. It is the only package that knows what a cache key
// holds and what a cached value is (Ranking, PPRRow). Centralizing this
// plumbing guarantees that a score computed by a background job is found by
// a later synchronous request — both sides derive the identical cache
// identity from the identical Spec.
package rankspec

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
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

// AlgoPPR names the forward-push personalized solve of a PPRSpec: the
// SolveStats.Algo of its solves and the Status.Algo of a PPR-cohort job. A
// Spec does not accept it.
const AlgoPPR = "ppr"

// Algos lists the supported algorithm names in documentation order.
func Algos() []string { return []string{AlgoD2PR, AlgoPageRank, AlgoHITS, AlgoDegree} }

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
// nodes).
func (s Spec) Options(n int) core.Options {
	o := core.Options{Alpha: s.Alpha}
	if len(s.Seeds) > 0 {
		tele := make([]float64, n)
		for _, sd := range s.Seeds {
			tele[sd] = 1
		}
		o.Teleport = tele
	}
	return o
}

// solverSuffix is the solver-options part of every d2pr, pagerank and hits
// cache key. Every solve runs at the solver's default tolerance and
// iteration cap, so the part is one string, built once.
var solverSuffix = "|tol=" + strconv.FormatFloat(core.DefaultTol, 'g', -1, 64) +
	"|maxiter=" + strconv.Itoa(core.DefaultMaxIter)

// CacheKey derives the rankcache key, canonicalizing parameters each
// algorithm ignores so equivalent configurations share one cache slot:
// p/β for everything but d2pr, p for d2pr at β = 1 (pure connection
// strength, which core.Blended builds without reading p), alpha and seeds
// additionally for HITS (which only reads Tol/MaxIter), and every solver
// option for degree centrality. The solver options follow in the order
// alpha, tol, maxiter (solverSuffix); the seeds come last, verbatim.
func (s Spec) CacheKey() rankcache.Key {
	p, beta, alpha, seeds := s.P, s.Beta, s.Alpha, s.Seeds
	switch s.Algo {
	case AlgoDegree:
		return rankcache.Key(s.Graph + "|" + s.Algo + "|p=0|beta=0|")
	case AlgoHITS:
		p, beta, alpha, seeds = 0, 0, core.DefaultAlpha, nil
	case AlgoPageRank:
		p, beta = 0, 0
	case AlgoD2PR:
		if beta == 1 {
			p = 0
		}
	}
	if alpha == 0 { // the solver reads α = 0 as its default
		alpha = core.DefaultAlpha
	}
	// strconv's shortest 'g' form is fmt's %g, byte for byte.
	var b strings.Builder
	var num [32]byte
	b.Grow(len(s.Graph) + len(s.Algo) + 64 + len(solverSuffix) + 12*len(seeds))
	b.WriteString(s.Graph)
	b.WriteByte('|')
	b.WriteString(s.Algo)
	b.WriteString("|p=")
	b.Write(strconv.AppendFloat(num[:0], p, 'g', -1, 64))
	b.WriteString("|beta=")
	b.Write(strconv.AppendFloat(num[:0], beta, 'g', -1, 64))
	b.WriteString("|alpha=")
	b.Write(strconv.AppendFloat(num[:0], alpha, 'g', -1, 64))
	b.WriteString(solverSuffix)
	for i, sd := range seeds {
		if i == 0 {
			b.WriteString("|seeds=")
		} else {
			b.WriteByte(',')
		}
		b.Write(strconv.AppendInt(num[:0], int64(sd), 10))
	}
	return rankcache.Key(b.String())
}

// CacheKeyFor is CacheKey scoped to one materialized snapshot: the snapshot's
// epoch is appended, so scores computed against a replaced graph are never
// served after a reload swap — old-epoch entries simply age out of the LRU
// instead of being hunted down. Cache operations use this form; wire-visible
// config strings keep the epoch-less CacheKey so response shapes are stable
// across reloads.
func (s Spec) CacheKeyFor(snap *registry.Snapshot) rankcache.Key {
	return EpochKey(s.CacheKey(), snap.Epoch)
}

// EpochKey scopes an epoch-less key to one snapshot epoch, as CacheKeyFor
// does. A caller that also needs the epoch-less key derives it once and
// extends it here.
func EpochKey(key rankcache.Key, epoch uint64) rankcache.Key {
	var b strings.Builder
	var num [20]byte
	b.Grow(len(key) + len("|epoch=") + len(num))
	b.WriteString(string(key))
	b.WriteString("|epoch=")
	b.Write(strconv.AppendUint(num[:0], epoch, 10))
	return rankcache.Key(b.String())
}

// isFinite reports whether f is neither NaN nor ±Inf.
func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// Compute runs the configured algorithm on the snapshot's graph. Power-
// iteration algorithms run through the snapshot's cached engine, so a cache
// miss re-solves but never re-transposes the graph. ctx bounds the solve:
// power iteration and HITS poll it once per iteration and abort with the
// context's error (degree centrality ignores it: it is O(n), cheaper than
// one solve iteration).
func (s Spec) Compute(ctx context.Context, snap *registry.Snapshot) ([]float64, error) {
	scores, _, err := s.ComputeStats(ctx, snap)
	return scores, err
}

// compute is what Solve caches for a spec: ComputeStats plus the ranking's
// best-ranked prefix, selected once after the solve. The selection counts
// in the solve stage.
func (s Spec) compute(ctx context.Context, snap *registry.Snapshot) (Ranking, telemetry.SolveStats, error) {
	scores, st, err := s.ComputeStats(ctx, snap)
	if err != nil {
		return Ranking{}, st, err
	}
	start := time.Now()
	r := newRanking(scores)
	st.Solve += time.Since(start)
	return r, st, nil
}

// ComputeStats is Compute plus per-solve telemetry: which solver ran, how
// hard it worked (iterations, final residual), and where the wall-clock went
// (engine build vs. solve). The engine-build stage is ~0 whenever the
// snapshot's engine is already built; the solve stage covers transition
// build, the iteration/push loop, and any selection work. AdmissionWait is
// left zero — queueing happens above this layer and is filled in by the
// caller that did the queueing.
func (s Spec) ComputeStats(ctx context.Context, snap *registry.Snapshot) ([]float64, telemetry.SolveStats, error) {
	g := snap.Graph
	opts := s.Options(g.NumNodes())
	st := telemetry.SolveStats{Algo: s.Algo}
	start := time.Now()
	switch s.Algo {
	case AlgoD2PR, AlgoPageRank:
		params := core.Params{P: s.P, Beta: s.Beta, Options: opts}
		if s.Algo == AlgoPageRank { // connection strength, whatever p and β say
			params.P, params.Beta = 0, 1
		}
		eng := snap.Engine()
		st.EngineBuild = time.Since(start)
		start = time.Now()
		res, err := eng.Rank(ctx, params)
		if err != nil {
			return nil, st, err
		}
		st.Iterations, st.Residual, st.Converged = res.Iterations, res.Residual, res.Converged
		st.Solve = time.Since(start)
		return res.Scores, st, nil
	case AlgoHITS:
		res, err := core.HITS(ctx, g, opts)
		if err != nil {
			return nil, st, err
		}
		st.Iterations = res.Iterations
		st.Converged = res.Converged
		st.Solve = time.Since(start)
		return res.Authorities, st, nil
	case AlgoDegree:
		scores := core.DegreeCentrality(g)
		st.Converged = true // O(n) direct computation; nothing to converge
		st.Solve = time.Since(start)
		return scores, st, nil
	}
	return nil, st, fmt.Errorf("unknown algo %q", s.Algo)
}

// Gate runs on a cache miss before the compute, under the solve context. It
// returns what to release once the compute ends and how long it waited for
// the slot; its error fails the solve without counting as a solve error.
type Gate func(ctx context.Context, graph string) (release func(), wait time.Duration, err error)

// computer is a spec that Solve can resolve: Spec caches a Ranking, PPRSpec
// its top-k rows.
type computer[V any] interface {
	compute(context.Context, *registry.Snapshot) (V, telemetry.SolveStats, error)
}

// Solve resolves spec through cache under key (spec's CacheKeyFor(snap)): a
// hit or a piggyback on an in-flight solve returns nil stats, and a miss runs
// gate (if non-nil), then the spec's compute, and returns the solve's stats.
// The compute reports to tel itself, so a solve every requester abandoned is
// still counted: its stats, with the gate's wait, go to RecordSolve, and only
// the spec's own error reaches RecordSolveError.
func Solve[V any, S computer[V]](ctx context.Context, cache *rankcache.Cache[V], tel *telemetry.Registry, snap *registry.Snapshot, key rankcache.Key, spec S, gate Gate) (V, *telemetry.SolveStats, error) {
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
		v, st, err := spec.compute(solveCtx, snap)
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

// PrefixLen is how many best-ranked node ids a Ranking keeps with its
// scores. The paper's tables and the serving defaults read at most this
// many rows, so those reads cost O(k) on a cache hit.
const PrefixLen = 100

// Ranking is the rank cache's value: a score vector and the ids of its
// min(n, PrefixLen) best nodes in TopKHeap's order (score descending, ties
// by ascending id). It is shared by every reader; neither slice may be
// modified.
type Ranking struct {
	Scores []float64
	Best   []int32
}

// PPRRow is one cached (node, score) pair of a personalized top-k result,
// in rank order: the PPR cache's value is a []PPRRow. Degrees and rank
// numbers are derivable in O(k) at serve time (PPREntries), so the cache
// stores only the 12 bytes per row that a solve produces.
type PPRRow struct {
	Node  int32   `json:"node"`
	Score float64 `json:"score"`
}

// newRanking selects the best-ranked prefix of scores.
func newRanking(scores []float64) Ranking {
	idx := stats.TopKHeap(scores, PrefixLen)
	best := make([]int32, len(idx))
	for i, u := range idx {
		best[i] = int32(u)
	}
	return Ranking{Scores: scores, Best: best}
}

// Top returns the k best rows, equal to TopEntries(g, r.Scores, k): read off
// the prefix in O(k) when it holds them, else by the bounded selection over
// every score.
func (r Ranking) Top(g *graph.Graph, k int) []Entry {
	if k > len(r.Best) && len(r.Best) < len(r.Scores) {
		return TopEntries(g, r.Scores, k)
	}
	best := r.Best[:max(0, min(k, len(r.Best)))]
	out := make([]Entry, len(best))
	for i, u := range best {
		out[i] = Entry{Rank: i + 1, Node: u, Degree: g.Degree(u), Score: r.Scores[u]}
	}
	return out
}
