// Package server exposes the ranking library as a JSON-over-HTTP service
// over a registry of named graphs. Graphs load lazily on first request;
// score vectors are cached in an LRU keyed by the full ranking configuration
// with single-flight deduplication, so repeated queries cost one map lookup
// and concurrent identical queries share one solve. Parameter sweeps run as
// asynchronous jobs (internal/jobs) on a bounded worker pool, or
// synchronously in one batch request for small grids.
//
// Endpoints (see docs/server-api.md for the full contract):
//
//	GET    /healthz                     → liveness
//	GET    /metrics                     → request counters + cache/job stats
//	GET    /v1/graphs                   → registered graphs + load state
//	GET    /v1/{graph}/info             → graph summary + Table-3 statistics
//	GET    /v1/{graph}/rank             → full scores or top-k rows
//	POST   /v1/{graph}/rank/batch       → synchronous small-grid sweep
//	GET    /v1/{graph}/ppr?seed=3       → personalized top-k (forward push)
//	POST   /v1/{graph}/ppr              → same, JSON body
//	POST   /v1/{graph}/ppr/batch        → async per-seed cohort job
//	GET    /v1/{graph}/topk?k=10        → top-k rows via bounded-heap select
//	GET    /v1/{graph}/node/{id}        → one node's score, rank, degree
//	GET    /v1/{graph}/correlate        → Spearman vs. the graph's
//	                                      significance vector (if any)
//	POST   /v1/jobs                     → submit an async sweep job
//	GET    /v1/jobs                     → list jobs
//	GET    /v1/jobs/{id}                → job status + progress
//	DELETE /v1/jobs/{id}                → cancel a job
//	GET    /v1/jobs/{id}/results        → results (JSON or streamed NDJSON)
//
// "jobs" is a reserved path segment: a registry graph named "jobs" would be
// shadowed by the job routes and is rejected at construction. (Entries
// added to the registry under that name after construction are silently
// shadowed — don't.)
//
// Ranking parameters (rank, topk, node, correlate): algo=d2pr|pagerank|
// hits|degree, p, beta, alpha, seeds=3,17 (personalized teleport).
//
// All handlers are safe for concurrent use.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"d2pr/internal/admission"
	"d2pr/internal/core"
	"d2pr/internal/faultinject"
	"d2pr/internal/graph"
	"d2pr/internal/jobs"
	"d2pr/internal/pprcache"
	"d2pr/internal/rankcache"
	"d2pr/internal/rankspec"
	"d2pr/internal/registry"
	"d2pr/internal/stats"
	"d2pr/internal/telemetry"
)

// Config tunes a Server. The zero value is usable.
type Config struct {
	// CacheSize bounds the number of resident score vectors.
	// 0 means rankcache.DefaultCapacity.
	CacheSize int
	// JobWorkers bounds concurrently-executing sweep configurations across
	// all jobs. 0 means jobs.DefaultWorkers.
	JobWorkers int
	// JobTTL is how long finished job results stay retrievable.
	// 0 means jobs.DefaultTTL.
	JobTTL time.Duration
	// PPRCacheSize bounds the number of resident personalized top-k results.
	// 0 means rankcache.DefaultAdmittingCapacity.
	PPRCacheSize int
	// PPREps is the forward-push residual threshold applied when a PPR
	// request omits eps. 0 means core.DefaultPPREpsilon.
	PPREps float64
	// MaxConcurrent bounds concurrently-running interactive solves per
	// graph (admission control; cache hits and piggybacks are exempt).
	// 0 means admission.DefaultMaxConcurrent.
	MaxConcurrent int
	// MaxQueue bounds how many interactive solves may wait for a slot per
	// graph; past it requests are shed with 429. 0 means
	// admission.DefaultMaxQueue; negative means no waiting.
	MaxQueue int
	// RequestTimeout is the deadline applied to interactive compute
	// requests that carry no timeout parameter. 0 means no default
	// deadline.
	RequestTimeout time.Duration
	// MaxRequestTimeout caps per-request timeout overrides. 0 means
	// admission.DefaultMaxTimeout.
	MaxRequestTimeout time.Duration
	// Logger receives one structured record per request when non-nil.
	Logger *slog.Logger
	// SlowRequestThreshold, when positive, promotes requests at or above
	// this wall-clock duration to a WARN "slow request" record carrying the
	// full solver-stage breakdown (queue/engine/solve, iterations,
	// residual). 0 disables outlier promotion.
	SlowRequestThreshold time.Duration
}

// Server serves ranking queries over a registry of named graphs.
type Server struct {
	reg    *registry.Registry
	cache  *rankcache.Cache[[]float64]
	ppr    *rankcache.Cache[[]pprcache.Entry]
	pprEps float64
	jobs   *jobs.Manager
	adm    *admission.Controller
	tel    *telemetry.Registry

	logger        *slog.Logger
	slowThreshold time.Duration

	// rankGate and pprGate run before a /rank… or /ppr miss's compute (see
	// solveGate). They are built once so that a hit allocates no closure.
	rankGate, pprGate rankspec.Gate

	// hookSolve, when non-nil, runs inside the compute closure after the
	// admission slot is acquired and before the solve — a test seam for
	// deterministic budget-saturation tests.
	hookSolve func(graph string)
}

// NewMulti creates a Server over a registry. The registry may keep gaining
// entries after the server starts; it must not be nil or empty, and must not
// contain a graph named "jobs" (reserved for the job routes).
func NewMulti(reg *registry.Registry, cfg Config) (*Server, error) {
	if reg == nil || reg.Len() == 0 {
		return nil, errors.New("server: registry is empty")
	}
	if reg.Has("jobs") {
		return nil, errors.New(`server: graph name "jobs" is reserved for the job routes`)
	}
	if cfg.PPREps == 0 {
		cfg.PPREps = core.DefaultPPREpsilon
	}
	if cfg.PPREps < 0 || cfg.PPREps > 1e-2 {
		return nil, fmt.Errorf("server: ppr eps %v out of (0, 1e-2]", cfg.PPREps)
	}
	s := &Server{
		reg:    reg,
		cache:  rankcache.NewLRU[[]float64](cfg.CacheSize),
		ppr:    rankcache.NewAdmitting[[]pprcache.Entry](cfg.PPRCacheSize),
		pprEps: cfg.PPREps,
		adm: admission.New(admission.Config{
			MaxConcurrent: cfg.MaxConcurrent,
			MaxQueue:      cfg.MaxQueue,
			Timeout:       cfg.RequestTimeout,
			MaxTimeout:    cfg.MaxRequestTimeout,
		}),
		tel:           telemetry.NewRegistry(),
		logger:        cfg.Logger,
		slowThreshold: cfg.SlowRequestThreshold,
	}
	// Compute panics are recovered inside the caches (the flight fails, the
	// key is not poisoned); the hooks make every such recovery visible as
	// d2pr_panics_total.
	s.cache.SetOnPanic(func(any) { s.tel.RecordPanic() })
	s.ppr.SetOnPanic(func(any) { s.tel.RecordPanic() })
	s.rankGate = s.solveGate(faultinject.PointRankCompute)
	s.pprGate = s.solveGate(faultinject.PointPPRCompute)
	mgr, err := jobs.New(jobs.Options{
		Workers:   cfg.JobWorkers,
		TTL:       cfg.JobTTL,
		Resolve:   reg.Get,
		Cache:     s.cache,
		PPRCache:  s.ppr,
		Telemetry: s.tel,
	})
	if err != nil {
		return nil, err
	}
	s.jobs = mgr
	return s, nil
}

// New creates a single-graph Server, registering g under the name "default".
// significance may be nil; it enables /v1/default/correlate when present.
// Kept as the convenience constructor for tests and embedders.
func New(g *graph.Graph, significance []float64) (*Server, error) {
	if g == nil || g.NumNodes() == 0 {
		return nil, errors.New("server: graph is empty")
	}
	reg := registry.New()
	if err := reg.AddGraph("default", g, significance); err != nil {
		return nil, err
	}
	return NewMulti(reg, Config{})
}

// Cache exposes the result cache (for warming and stats).
func (s *Server) Cache() *rankcache.Cache[[]float64] { return s.cache }

// PPRCache exposes the personalized-ranking result cache.
func (s *Server) PPRCache() *rankcache.Cache[[]pprcache.Entry] { return s.ppr }

// Jobs exposes the sweep-job manager.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Telemetry exposes the request/solve telemetry registry (for tests and
// embedders that scrape programmatically).
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// Close drains the job subsystem: no new jobs are accepted and running jobs
// finish. If ctx expires first, remaining jobs are cancelled (in-flight
// solves still complete) and ctx's error is returned.
func (s *Server) Close(ctx context.Context) error {
	return s.jobs.Close(ctx)
}

// Handler returns the HTTP handler tree wrapped in the logging/metrics
// middleware. The job routes live on their own mux dispatched by path
// prefix: "/v1/jobs/{id}" and "/v1/{graph}/info" would otherwise be
// conflicting ServeMux patterns (neither is more specific).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	mux.HandleFunc("POST /v1/graphs/{graph}/reload", s.handleReload)
	mux.HandleFunc("GET /v1/{graph}/info", s.handleInfo)
	mux.HandleFunc("GET /v1/{graph}/rank", s.handleRank)
	mux.HandleFunc("POST /v1/{graph}/rank/batch", s.handleRankBatch)
	mux.HandleFunc("GET /v1/{graph}/ppr", s.handlePPRGet)
	mux.HandleFunc("POST /v1/{graph}/ppr", s.handlePPRPost)
	mux.HandleFunc("POST /v1/{graph}/ppr/batch", s.handlePPRBatch)
	mux.HandleFunc("GET /v1/{graph}/topk", s.handleTopK)
	mux.HandleFunc("GET /v1/{graph}/node/{id}", s.handleNode)
	mux.HandleFunc("GET /v1/{graph}/correlate", s.handleCorrelate)

	jobsMux := http.NewServeMux()
	jobsMux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	jobsMux.HandleFunc("GET /v1/jobs", s.handleJobList)
	jobsMux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	jobsMux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	jobsMux.HandleFunc("GET /v1/jobs/{id}/results", s.handleJobResults)

	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs" || strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			jobsMux.ServeHTTP(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
	return s.instrument(root)
}

// Warm precomputes d2pr scores for every registered graph at each
// de-coupling weight in ps (β = beta, default solver options), loading
// graphs as needed. It validates the grid, then runs one synchronous sweep
// per graph in the background on the job workers, so -job-workers bounds
// warming together with jobs and batches; the returned channel closes when
// the last sweep completes. Each compute goes through the snapshot's cached
// engine, so warming also pre-builds the pull topology later live requests
// reuse.
func (s *Server) Warm(ps []float64, beta float64) (<-chan struct{}, error) {
	names := s.reg.Names()
	sweep := func(name string) jobs.SweepSpec {
		return jobs.SweepSpec{Graph: name, Ps: ps, Betas: []float64{beta}}
	}
	if err := sweep(names[0]).Validate(); err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Warming is best-effort infrastructure: a panic here (a corrupt
		// graph tripping the loader, say) must not kill the process, and a
		// graph that fails to load is simply skipped — it will load, or
		// degrade, on its first live request. A row's own solve error or
		// panic lands in its discarded result row.
		defer func() {
			if p := recover(); p != nil {
				s.tel.RecordPanic()
				if s.logger != nil {
					s.logger.Error("warm panic", "panic", fmt.Sprint(p))
				}
			}
		}()
		for _, name := range names {
			if snap, err := s.reg.Get(name); err == nil {
				s.jobs.RunSync(context.Background(), snap, sweep(name))
			}
		}
	}()
	return done, nil
}

// parseRankQuery extracts and validates the ranking parameters. Seed bounds
// are checked against the materialized graph.
func parseRankQuery(r *http.Request, snap *registry.Snapshot) (rankspec.Spec, error) {
	spec := rankspec.New(snap.Name)
	vals := r.URL.Query()
	if a := vals.Get("algo"); a != "" {
		spec.Algo = a
	}
	parseF := func(name string, dst *float64) error {
		if v := vals.Get(name); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("bad %s %q", name, v)
			}
			*dst = f
		}
		return nil
	}
	if err := parseF("p", &spec.P); err != nil {
		return spec, err
	}
	if err := parseF("beta", &spec.Beta); err != nil {
		return spec, err
	}
	if err := parseF("alpha", &spec.Alpha); err != nil {
		return spec, err
	}
	if seeds := vals.Get("seeds"); seeds != "" {
		for _, part := range strings.Split(seeds, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || id < 0 || id >= snap.Graph.NumNodes() {
				return spec, fmt.Errorf("bad seed %q", part)
			}
			spec.Seeds = append(spec.Seeds, int32(id))
		}
	}
	if err := spec.Validate(snap.Graph.NumNodes()); err != nil {
		return spec, err
	}
	return spec, nil
}

// cacheHeader reports how a ranking response was served: "hit" (resident
// entry or a piggybacked in-flight solve), "miss" (fresh solve), or "stale"
// (an evicted copy served in place of shedding the request).
const cacheHeader = "X-Cache"

// requestCtx derives a compute request's context: the client's context plus
// the admission deadline — the -request-timeout default, overridable with a
// ?timeout= Go duration, capped at -max-request-timeout.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	var override time.Duration
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q (want a positive duration, e.g. 500ms)", v)
		}
		override = d
	}
	ctx, cancel := s.adm.Deadline(r.Context(), override)
	return ctx, cancel, nil
}

// scores returns the score vector for a spec together with its cache status
// ("hit", "miss", or "stale") and, for a miss, the solve-stage stats.
// Concurrent identical requests share one solve via the cache's single-flight
// path; only an actual solve claims one of the graph's admission slots — hits
// and piggybacks never queue. The slot is acquired under the detached solve
// context, so queue waiting is abandoned only when every requester for the
// key is gone. When the budget sheds and an evicted copy of the vector
// exists, the stale copy is served instead of the error.
func (s *Server) scores(ctx context.Context, snap *registry.Snapshot, spec rankspec.Spec) ([]float64, string, *telemetry.SolveStats, error) {
	key := spec.CacheKeyFor(snap)
	val, st, err := rankspec.Solve(ctx, s.cache, s.tel, snap, key, spec, s.rankGate)
	switch {
	case err == nil && st == nil:
		return val, "hit", nil, nil
	case err == nil:
		return val, "miss", st, nil
	case errors.Is(err, admission.ErrQueueFull):
		if stale, ok := s.cache.LookupStale(key); ok {
			return stale, "stale", nil, nil
		}
		// The cache may still hold the vector under the previous epoch's key:
		// a reload happened since it was computed. Slightly-old scores beat
		// shedding — the stale tier's whole purpose — so probe one epoch back
		// (resident, then stale) before giving up.
		if snap.Epoch > 1 {
			prev := spec.CacheKey() + rankcache.Key("|epoch="+strconv.FormatUint(snap.Epoch-1, 10))
			if stale, ok := s.cache.Lookup(prev); ok {
				return stale, "stale", nil, nil
			}
			if stale, ok := s.cache.LookupStale(prev); ok {
				return stale, "stale", nil, nil
			}
		}
	}
	return nil, "", nil, err
}

// solveGate returns the gate a /rank… or /ppr miss passes before its
// compute: it claims one of the graph's admission slots, fires point's fault
// injection and runs hookSolve. The slot is released if either of the last
// two fails or panics.
func (s *Server) solveGate(point faultinject.Point) rankspec.Gate {
	return func(ctx context.Context, graph string) (func(), time.Duration, error) {
		waitStart := time.Now()
		release, err := s.adm.Acquire(ctx, graph)
		wait := time.Since(waitStart)
		if err != nil {
			return nil, wait, err
		}
		passed := false
		defer func() {
			if !passed {
				release()
			}
		}()
		if err := faultinject.Fire(point, graph); err != nil {
			return nil, wait, err
		}
		if s.hookSolve != nil {
			s.hookSolve(graph)
		}
		passed = true
		return release, wait, nil
	}
}

// rankScores runs the full interactive compute path for a ranking handler:
// derive the request context, resolve the scores through cache + admission,
// and map failures to their HTTP status. On success the cache-status header
// is set and the scores returned; on failure the response has been written.
func (s *Server) rankScores(w http.ResponseWriter, r *http.Request, snap *registry.Snapshot, spec rankspec.Spec) ([]float64, bool) {
	ctx, cancel, err := s.requestCtx(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	defer cancel()
	scores, status, st, err := s.scores(ctx, snap, spec)
	if err != nil {
		s.writeComputeError(w, snap.Name, err)
		return nil, false
	}
	w.Header().Set(cacheHeader, status)
	noteCompute(w, r, snap.Name, status, st)
	return scores, true
}

// snapshot resolves the {graph} path component against the registry.
// Unknown names are 404 on every /v1/{graph}/... route. A known-but-sick
// graph (degraded inside its backoff window, or quarantined, with no prior
// good snapshot to serve) is 503 with the lifecycle state in the body —
// clients and load balancers can tell "doesn't exist" from "exists, come
// back later". Anything else is 500.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) (*registry.Snapshot, bool) {
	name := r.PathValue("graph")
	snap, err := s.reg.GetContext(r.Context(), name)
	if err != nil {
		var serr *registry.StateError
		switch {
		case errors.Is(err, registry.ErrUnknownGraph):
			writeError(w, http.StatusNotFound, err)
		case errors.As(err, &serr):
			if secs := int(time.Until(serr.RetryAt).Seconds()) + 1; !serr.RetryAt.IsZero() && secs > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(secs))
			}
			writeJSON(w, http.StatusServiceUnavailable,
				errorBody{Error: err.Error(), State: string(serr.State)})
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return nil, false
	}
	return snap, true
}

// GraphsResponse is the /v1/graphs response body.
type GraphsResponse struct {
	Graphs []registry.Status `json:"graphs"`
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, GraphsResponse{Graphs: s.reg.Statuses()})
}

// GraphInfo is the /v1/{graph}/info response body.
type GraphInfo struct {
	Name            string  `json:"name"`
	Source          string  `json:"source"`
	Kind            string  `json:"kind"`
	Weighted        bool    `json:"weighted"`
	Nodes           int     `json:"nodes"`
	Edges           int     `json:"edges"`
	AvgDegree       float64 `json:"avg_degree"`
	DegreeStdDev    float64 `json:"degree_stddev"`
	MedianNbrStdDev float64 `json:"median_neighbor_degree_stddev"`
	HasSignificance bool    `json:"has_significance"`
	// Engine reports the solver engine's memory layout and build costs —
	// present only once some solve has built the engine (reporting never
	// triggers the build itself). Float32Mode is the process-wide score
	// tier the power-iteration algorithms serve with (-float32).
	Engine      *core.EngineStats `json:"engine,omitempty"`
	Float32Mode bool              `json:"float32_mode"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	st := graph.ComputeStats(snap.Graph)
	info := GraphInfo{
		Name:            snap.Name,
		Source:          snap.Source,
		Kind:            snap.Graph.Kind().String(),
		Weighted:        snap.Graph.Weighted(),
		Nodes:           st.Nodes,
		Edges:           st.Edges,
		AvgDegree:       st.AvgDegree,
		DegreeStdDev:    st.DegreeStdDev,
		MedianNbrStdDev: st.MedianNeighborDegStdDev,
		HasSignificance: snap.Significance != nil,
		Float32Mode:     rankspec.Float32Mode(),
	}
	if eng := snap.EngineIfBuilt(); eng != nil {
		es := eng.Stats()
		info.Engine = &es
	}
	writeJSON(w, http.StatusOK, info)
}

// RankEntry is one row of a top-k response.
type RankEntry = rankspec.Entry

// RankResponse is the /v1/{graph}/rank and /v1/{graph}/topk response body.
type RankResponse struct {
	Graph  string      `json:"graph"`
	Config string      `json:"config"`
	Top    []RankEntry `json:"top,omitempty"`
	Scores []float64   `json:"scores,omitempty"`
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	spec, err := parseRankQuery(r, snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Validate top before solving: a malformed request must not cost a
	// cold solve (or a cache slot).
	top := 0
	if topStr := r.URL.Query().Get("top"); topStr != "" {
		top, err = strconv.Atoi(topStr)
		if err != nil || top <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad top %q", topStr))
			return
		}
	}
	scores, ok := s.rankScores(w, r, snap, spec)
	if !ok {
		return
	}
	resp := RankResponse{Graph: snap.Name, Config: string(spec.CacheKey())}
	if top > 0 {
		resp.Top = rankspec.TopEntries(snap.Graph, scores, top)
	} else {
		resp.Scores = scores
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	spec, err := parseRankQuery(r, snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	k := 10
	if kStr := r.URL.Query().Get("k"); kStr != "" {
		k, err = strconv.Atoi(kStr)
		if err != nil || k <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad k %q", kStr))
			return
		}
	}
	scores, ok := s.rankScores(w, r, snap, spec)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, RankResponse{
		Graph:  snap.Name,
		Config: string(spec.CacheKey()),
		Top:    rankspec.TopEntries(snap.Graph, scores, k),
	})
}

// NodeResponse is the /v1/{graph}/node/{id} response body.
type NodeResponse struct {
	Graph  string  `json:"graph"`
	Node   int32   `json:"node"`
	Degree int     `json:"degree"`
	Score  float64 `json:"score"`
	Rank   int     `json:"rank"`
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	idStr := r.PathValue("id")
	id, err := strconv.Atoi(idStr)
	if err != nil || id < 0 || id >= snap.Graph.NumNodes() {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown node %q", idStr))
		return
	}
	spec, err := parseRankQuery(r, snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	scores, ok := s.rankScores(w, r, snap, spec)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, NodeResponse{
		Graph:  snap.Name,
		Node:   int32(id),
		Degree: snap.Graph.Degree(int32(id)),
		Score:  scores[id],
		Rank:   stats.RankOf(scores, id),
	})
}

// CorrelateResponse is the /v1/{graph}/correlate response body.
type CorrelateResponse struct {
	Graph    string  `json:"graph"`
	Config   string  `json:"config"`
	Spearman float64 `json:"spearman"`
	DegreeR  float64 `json:"degree_spearman"`
}

func (s *Server) handleCorrelate(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	if snap.Significance == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("graph %q has no significance vector", snap.Name))
		return
	}
	spec, err := parseRankQuery(r, snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	scores, ok := s.rankScores(w, r, snap, spec)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, CorrelateResponse{
		Graph:    snap.Name,
		Config:   string(spec.CacheKey()),
		Spearman: stats.Spearman(scores, snap.Significance),
		DegreeR:  stats.Spearman(scores, rankspec.DegreeVector(snap.Graph)),
	})
}
