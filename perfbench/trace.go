package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"d2pr/internal/core"
	"d2pr/internal/pprcache"
	"d2pr/internal/rankcache"
)

// span is one timed call. Spans of one request share req; a span's parent
// is the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps a traced run's spans in memory until the run ends. The
// spans come from the benchmark's own files: a root span around each
// Handler().ServeHTTP call, then one span around each replayed call of the
// layers the request went through (the program itself records no spans).
// A replayed call runs after the request returns, so a parent's self time
// is its duration minus its children's durations, not minus the part of
// its interval they cover.
type tracer struct {
	t0    time.Time
	ctx   context.Context
	req   int
	spans []span
	// nsPerArc is Result.Elapsed ÷ (iterations × arcs) of every replayed
	// engine solve.
	nsPerArc []float64
	// batchMs and rowMs are the wall time of each batch request and the
	// elapsed_ms of each of its configuration rows.
	batchMs, rowMs []float64
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) finish(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// call runs f in a span and returns the span's id.
func (t *tracer) call(name string, parent int, f func()) int {
	id := t.begin(name, parent)
	f()
	t.finish(id)
	return id
}

// solve replays an engine solve and records its per-arc cost.
func (t *tracer) solve(parent int, eng *core.Engine, tr *core.Transition, opts core.Options) *core.Result {
	var res *core.Result
	t.call("core.solve", parent, func() { res, _ = eng.SolveContext(t.ctx, tr, opts) })
	if res != nil && res.Iterations > 0 && eng.Graph().NumArcs() > 0 {
		t.nsPerArc = append(t.nsPerArc, float64(res.Elapsed)/(float64(res.Iterations)*float64(eng.Graph().NumArcs())))
	}
	return res
}

// push replays a forward push on the engine's connection transition.
func (t *tracer) push(parent int, eng *core.Engine, seed int32, eps float64) {
	t.call("core.push", parent, func() {
		_, _ = eng.SolvePPRContext(t.ctx, eng.Connection(), seed, core.ForwardPushOptions{Alpha: core.DefaultAlpha, Epsilon: eps})
	})
}

func (t *tracer) rankLookup(e *env, parent int, key string) []float64 {
	var v []float64
	t.call("rankcache.lookup", parent, func() { v, _ = e.srv.Cache().Lookup(rankcache.Key(key)) })
	return v
}

func (t *tracer) pprLookup(e *env, parent int, key string) {
	t.call("pprcache.lookup", parent, func() { _, _ = e.srv.PPRCache().Lookup(pprcache.Key(key)) })
}

// record replays the middleware's telemetry call. It adds one request to
// the server's route counters, which no per-layer metric reads.
func (t *tracer) record(e *env, parent int, route string) {
	tel := e.srv.Telemetry()
	d := time.Duration(t.spans[parent-1].dur())
	t.call("telemetry.record", parent, func() { tel.Record(route, http.StatusOK, d) })
}

// durations returns the durations in ns of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, for each span named name, its duration minus its
// direct children's.
func (t *tracer) selfTimes(name string) []float64 {
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.dur()
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur()-child[s.ID])
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// counters are the program's own counters, read through GET /metrics.
type counters struct {
	Solves []struct {
		Solves          uint64  `json:"solves"`
		PPRSolves       uint64  `json:"ppr_solves"`
		IterationsTotal uint64  `json:"iterations_total"`
		PushesTotal     uint64  `json:"pushes_total"`
		AdmissionWaitMs float64 `json:"admission_wait_ms_total"`
	} `json:"solves"`
	Admission struct {
		Admitted uint64 `json:"admitted"`
	} `json:"admission"`
	Cache struct {
		Hits, Misses, Evictions uint64
	} `json:"cache"`
	PPRCache struct {
		Hits, Misses, Rejected uint64
	} `json:"ppr_cache"`
}

type info struct {
	Engine *struct {
		BuildMs   float64 `json:"build_ms"`
		ReorderMs float64 `json:"reorder_ms"`
	} `json:"engine"`
}

// traced replays the workload's first rounds with spans, reads the
// program's counters, and fills out with every per-layer metric; a layer
// the workload does not reach reads 0. Round 0 runs without spans and
// counts heap allocations per request.
func traced(cfg config, w workload, e *env, rounds int, materializeMs []float64, out *output, log io.Writer) ([]error, error) {
	t := &tracer{t0: time.Now(), ctx: context.Background()}
	var wrong []error
	handle := func(q *request, status int, body []byte, d time.Duration) {
		out.Attempted += q.ops
		if q.sweep != nil && status == http.StatusOK {
			t.batchMs = append(t.batchMs, ms(d))
			t.rowMs = append(t.rowMs, rowTimes(body)...)
		}
		failed, err := w.observe(e, q, status, body)
		out.Failed += failed
		if err != nil && len(wrong) < 10 {
			wrong = append(wrong, err)
		}
	}
	// Round 0 counts the heap objects the requests allocate. Answers are
	// copied out (one object each) and checked after the count.
	qs := w.round(0)
	statuses, bodies, durs := make([]int, len(qs)), make([][]byte, len(qs)), make([]time.Duration, len(qs))
	before := heapObjects()
	for i, q := range qs {
		var body []byte
		statuses[i], body, durs[i] = e.serve(q.req)
		bodies[i] = slices.Clone(body)
	}
	allocs := heapObjects() - before - uint64(len(qs))
	for i, q := range qs {
		handle(q, statuses[i], bodies[i], durs[i])
	}
	for r := 1; r < rounds; r++ {
		for _, q := range w.round(r) {
			t.req++
			root := t.begin("server.request", 0)
			status, body, d := e.serve(q.req)
			t.finish(root)
			handle(q, status, body, d)
			w.replay(e, t, q, root)
		}
	}

	var c counters
	if err := e.get("/metrics", &c); err != nil {
		return nil, err
	}
	var buildMs, reorderMs float64
	for _, name := range e.names {
		var in info
		if err := e.get("/v1/"+name+"/info", &in); err != nil {
			return nil, err
		}
		if in.Engine != nil {
			buildMs += in.Engine.BuildMs
			reorderMs += in.Engine.ReorderMs
		}
	}
	var solves, pprSolves, iters, pushes, waitMs float64
	for _, g := range c.Solves {
		solves += float64(g.Solves)
		pprSolves += float64(g.PPRSolves)
		iters += float64(g.IterationsTotal)
		pushes += float64(g.PushesTotal)
		waitMs += g.AdmissionWaitMs
	}
	m := out.Metrics
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	spanMed := func(name string, perUnit float64) float64 { return medianOr0(t.durations(name)) / perUnit }
	put("core.engine_build_ms", "ms", buildMs)
	put("core.reorder_ms", "ms", reorderMs)
	put("core.iterations", "count", ratio(iters, solves))
	put("core.ns_per_arc", "ns", medianOr0(t.nsPerArc))
	put("core.transition_ms", "ms", spanMed("core.transition", 1e6))
	put("core.push_ms", "ms", spanMed("core.push", 1e6))
	put("core.pushes_per_query", "count", ratio(pushes, pprSolves))
	put("rankspec.compute_ms", "ms", spanMed("rankspec.compute", 1e6))
	put("rankspec.ppr_compute_ms", "ms", spanMed("rankspec.ppr_compute", 1e6))
	put("rankspec.cache_key_us", "us", spanMed("rankspec.cache_key", 1e3))
	put("rankspec.top_entries_us", "us", spanMed("rankspec.top_entries", 1e3))
	put("rankspec.unique_solve_ratio", "ratio", ratio(float64(w.transitionCount()), solves))
	put("stats.spearman_ms", "ms", spanMed("stats.spearman", 1e6))
	put("rankcache.lookup_us", "us", spanMed("rankcache.lookup", 1e3))
	put("rankcache.hit_ratio", "ratio", ratio(float64(c.Cache.Hits), float64(c.Cache.Hits+c.Cache.Misses)))
	put("rankcache.evictions", "count", float64(c.Cache.Evictions))
	put("pprcache.lookup_us", "us", spanMed("pprcache.lookup", 1e3))
	put("pprcache.hit_ratio", "ratio", ratio(float64(c.PPRCache.Hits), float64(c.PPRCache.Hits+c.PPRCache.Misses)))
	put("pprcache.admit_ratio", "ratio", ratio(float64(c.PPRCache.Misses-c.PPRCache.Rejected), float64(c.PPRCache.Misses)))
	put("jobs.batch_ms", "ms", medianOr0(t.batchMs))
	put("jobs.config_ms", "ms", medianOr0(t.rowMs))
	put("jobs.parallelism", "ratio", ratio(sum(t.rowMs), sum(t.batchMs)))
	put("registry.get_us", "us", spanMed("registry.get", 1e3))
	put("registry.materialize_ms", "ms", sum(materializeMs))
	put("admission.wait_ms", "ms", ratio(waitMs, float64(c.Admission.Admitted)))
	put("server.request_us", "us", spanMed("server.request", 1e3))
	put("server.self_us", "us", medianOr0(t.selfTimes("server.request"))/1e3)
	put("server.allocs_per_request", "count", ratio(float64(allocs), float64(len(qs))))
	put("telemetry.record_ns", "ns", spanMed("telemetry.record", 1))

	breakdown(log, t)
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := t.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "spans: %d written to %s\n", len(t.spans), path)
	return wrong, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// medianOr0 is the median of xs, or 0 when the workload made no such
// measurement.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rowTimes returns the elapsed_ms of every row of a batch answer.
func rowTimes(body []byte) []float64 {
	var resp batchResponse
	if json.Unmarshal(body, &resp) != nil {
		return nil
	}
	out := make([]float64, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = r.ElapsedMs
	}
	return out
}

// breakdown prints, per span name, the count and the median duration and
// self time of its spans.
func breakdown(log io.Writer, t *tracer) {
	names := map[string]bool{}
	for _, s := range t.spans {
		names[s.Name] = true
	}
	keys := metricNames(names)
	fmt.Fprintf(log, "%-24s %8s %14s %14s\n", "span", "count", "median_us", "self_us")
	for _, k := range keys {
		d := t.durations(k)
		fmt.Fprintf(log, "%-24s %8d %14.3f %14.3f\n", k, len(d), median(d)/1e3, median(t.selfTimes(k))/1e3)
	}
}
