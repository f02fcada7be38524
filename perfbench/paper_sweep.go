package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"d2pr/internal/core"
	"d2pr/internal/rankspec"
	"d2pr/internal/stats"
)

// paperSweep is the paper's own experiment: each pass sends one
// POST /v1/{graph}/rank/batch per paper graph over p ∈ {−4, −3.5, …, 4} ×
// β ∈ {0, 0.25, 0.5, 0.75, 1}, correlating every ranking with the graph's
// significance. Every pass shifts the p axis by its own offset, so no pass
// repeats a configuration and the cache never answers.
type paperSweep struct {
	*base
	ps, betas []float64
	names     []string
	// sampled holds one row per batch, checked against the oracle after
	// the timed phase; full holds the configuration whose whole /rank
	// vector is checked, per graph.
	sampled []sampledRow
	full    map[string]sampledRow
}

// sweepBody is the batch request body.
type sweepBody struct {
	Ps        []float64 `json:"ps"`
	Betas     []float64 `json:"betas"`
	TopK      int       `json:"top_k"`
	Correlate bool      `json:"correlate"`
}

type batchResponse struct {
	Count   int        `json:"count"`
	Results []batchRow `json:"results"`
}

type batchRow struct {
	Spec struct {
		P    float64 `json:"p"`
		Beta float64 `json:"beta"`
	} `json:"spec"`
	Cached         bool     `json:"cached"`
	ElapsedMs      float64  `json:"elapsed_ms"`
	Converged      bool     `json:"converged"`
	Top            []row    `json:"top"`
	Spearman       *float64 `json:"spearman"`
	DegreeSpearman *float64 `json:"degree_spearman"`
	Error          string   `json:"error"`
}

type sampledRow struct {
	graph string
	row   batchRow
}

const sweepTopK = 10

func newPaperSweep(b *base) *paperSweep {
	w := &paperSweep{base: b, full: map[string]sampledRow{}}
	for i := 0; i <= 16; i++ {
		w.ps = append(w.ps, -4+0.5*float64(i))
	}
	w.betas = []float64{0, 0.25, 0.5, 0.75, 1}
	return w
}

func (w *paperSweep) roundSeconds() float64 { return 3.7 }
func (w *paperSweep) perRound() int         { return len(w.names) }

func (w *paperSweep) setup() (*env, error) {
	e, err := w.paperEnv()
	if err == nil {
		w.names = e.names
	}
	return e, err
}

// pass returns one pass's batch requests, with the p axis shifted by an
// offset of 0.001 to 0.01 in either direction: the cost of a solve does
// not notice, the cache key does.
func (w *paperSweep) pass() []*request {
	off := (0.001 + 0.009*w.rng.Float64()) * float64(1-2*w.rng.IntN(2))
	ps := make([]float64, len(w.ps))
	for i, p := range w.ps {
		ps[i] = p + off
	}
	out := make([]*request, len(w.names))
	for i, name := range w.names {
		body := &sweepBody{Ps: ps, Betas: w.betas, TopK: sweepTopK, Correlate: true}
		raw, err := json.Marshal(body)
		if err != nil {
			panic(err)
		}
		out[i] = &request{
			req:   newRequest(http.MethodPost, "/v1/"+name+"/rank/batch", raw),
			graph: name, ops: len(ps) * len(w.betas), kind: i, sweep: body,
			key: w.rng.IntN(len(ps) * len(w.betas)),
		}
	}
	return out
}

func (w *paperSweep) round(int) []*request { return w.pass() }

func (w *paperSweep) warm(e *env) error {
	for _, q := range w.pass() {
		status, body, _ := e.serve(q.req)
		if _, err := w.observe(e, q, status, body); err != nil {
			return err
		}
	}
	return nil
}

// observe checks every row of a batch answer and keeps the sampled one.
func (w *paperSweep) observe(e *env, q *request, status int, body []byte) (int, error) {
	if status != http.StatusOK {
		return q.ops, nil
	}
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return q.ops, fmt.Errorf("%s batch: %w", q.graph, err)
	}
	if resp.Count != q.ops || len(resp.Results) != q.ops {
		return q.ops, fmt.Errorf("%s batch: %d rows, want %d", q.graph, len(resp.Results), q.ops)
	}
	weighted := e.snaps[q.graph].Graph.Weighted()
	failed := 0
	for i, r := range resp.Results {
		if r.Error != "" {
			failed++
			continue
		}
		w.noteConfig(q.graph, weighted, r.Spec.P, r.Spec.Beta)
		switch {
		case !r.Cached && !r.Converged:
			return failed, fmt.Errorf("%s p=%g β=%g: fresh row did not converge", q.graph, r.Spec.P, r.Spec.Beta)
		case len(r.Top) != min(sweepTopK, e.snaps[q.graph].Graph.NumNodes()):
			return failed, fmt.Errorf("%s p=%g β=%g: %d top rows", q.graph, r.Spec.P, r.Spec.Beta, len(r.Top))
		case r.Spearman == nil || r.DegreeSpearman == nil:
			return failed, fmt.Errorf("%s p=%g β=%g: correlation missing", q.graph, r.Spec.P, r.Spec.Beta)
		}
		if i == q.key {
			s := sampledRow{graph: q.graph, row: r}
			w.sampled = append(w.sampled, s)
			w.full[q.graph] = s
		}
	}
	return failed, nil
}

// check compares every sampled row with the oracle — its top-k, both
// Spearman values — and one full /rank vector per graph.
func (w *paperSweep) check(e *env, _ io.Writer) error {
	return parallel(len(w.sampled), func(i int) error {
		s := w.sampled[i]
		snap := e.snaps[s.graph]
		og := w.oracle(snap.Graph)
		ref, err := og.rank(s.row.Spec.P, s.row.Spec.Beta)
		if err != nil {
			return err
		}
		where := fmt.Sprintf("%s p=%g β=%g", s.graph, s.row.Spec.P, s.row.Spec.Beta)
		if err := checkTop(og, s.row.Top, ref, sweepTopK, false, symmetric(rankBound())); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		if err := checkSpearman("spearman", s.row.Spearman, spearman(ref, snap.Significance), og.n); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		if err := checkSpearman("degree_spearman", s.row.DegreeSpearman, spearman(ref, og.degrees()), og.n); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		if w.full[s.graph].row.Spec != s.row.Spec {
			return nil
		}
		var full struct {
			Scores []float64 `json:"scores"`
		}
		if err := e.get(fmt.Sprintf("/v1/%s/rank?p=%s&beta=%s", s.graph, fmtF(s.row.Spec.P), fmtF(s.row.Spec.Beta)), &full); err != nil {
			return err
		}
		if err := checkVector(full.Scores, ref, rankBound()); err != nil {
			return fmt.Errorf("%s full vector: %w", where, err)
		}
		return nil
	})
}

// replay repeats, per configuration of the batch, the transition build,
// the engine solve, the top-k selection and both Spearman correlations.
// The batch runs its configurations concurrently while the replay is
// sequential, so the replayed spans hang off their own root rather than
// the request.
func (w *paperSweep) replay(e *env, t *tracer, q *request, parent int) {
	t.call("registry.get", parent, func() { _, _ = e.reg.Get(q.graph) })
	root := t.begin("jobs.replay", 0)
	snap := e.snaps[q.graph]
	eng := snap.Engine()
	deg := rankspec.DegreeVector(snap.Graph)
	for _, p := range q.sweep.Ps {
		for _, beta := range q.sweep.Betas {
			spec := rankspec.New(q.graph)
			spec.P, spec.Beta = p, beta
			t.call("rankspec.cache_key", root, func() { _ = spec.CacheKeyFor(snap) })
			var tr *core.Transition
			t.call("core.transition", root, func() { tr, _ = core.Blended(snap.Graph, p, beta) })
			if tr == nil {
				continue
			}
			res := t.solve(root, eng, tr, spec.Options(snap.Graph.NumNodes()))
			if res == nil {
				continue
			}
			t.call("rankspec.top_entries", root, func() { _ = rankspec.TopEntries(snap.Graph, res.Scores, sweepTopK) })
			t.call("stats.spearman", root, func() { _ = stats.Spearman(res.Scores, snap.Significance) })
			t.call("stats.spearman", root, func() { _ = stats.Spearman(res.Scores, deg) })
		}
	}
	t.finish(root)
	t.record(e, parent, "POST /v1/{graph}/rank/batch")
}
