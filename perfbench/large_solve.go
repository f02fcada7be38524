package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"d2pr/internal/core"
	"d2pr/internal/dataset"
	"d2pr/internal/graph"
	"d2pr/internal/rankspec"
	"d2pr/internal/registry"
)

// largeSolve asks GET /topk?k=10 with a new p on every request, half of
// them at β = 0.5, on a preferential-attachment graph whose working set
// outgrows a core's L2: vertex reordering, the cache-blocked schedule and
// the engine build do the work, on both the factored (β = 0) and the
// per-arc (β = 0.5) transition path.
type largeSolve struct {
	*base
	g *graph.Graph
	// sampled are the two requests of round 0 whose top-k the oracle
	// checks; the β = 0.5 one also has its full vector checked.
	sample [2]int
	kept   []largeAnswer
}

type largeAnswer struct {
	p, beta float64
	top     []row
}

// largeStrata are the p values of a round; each round shifts them all by
// its own offset in [−0.05, 0.05), so every request asks a new p while
// every round costs the same (a solve's iteration count grows with p at
// β = 0, so wider offsets would make the cost of a run depend on the
// seed). Even positions run at β = 0, odd at 0.5.
var largeStrata = []float64{-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5}

const largeTopK = 10

// newLargeSolve generates the workload's input graph. Generation is not
// part of the timed set-up: the graph stands for data the server is
// handed, as a file would be.
func newLargeSolve(b *base) *largeSolve {
	w := &largeSolve{base: b, g: dataset.BarabasiAlbert(b.size.largeNodes, b.size.largeK, largeSeed)}
	w.sample = [2]int{2 * w.rng.IntN(4), 2*w.rng.IntN(4) + 1}
	return w
}

func (w *largeSolve) roundSeconds() float64 { return 4.8 }
func (w *largeSolve) perRound() int         { return len(largeStrata) }

// setup registers the graph in a fresh registry and builds its engine.
// Each set-up registers its own copy of the graph header, so the
// process-wide engine cache (keyed by graph pointer) cannot hand a later
// set-up the engine an earlier one built.
func (w *largeSolve) setup() (*env, error) {
	reg := registry.New()
	g := *w.g
	if err := reg.AddGraph(largeGraph, &g, nil); err != nil {
		return nil, err
	}
	return newEnv(reg)
}

func (w *largeSolve) round(r int) []*request {
	off := -0.05 + 0.1*w.rng.Float64()
	out := make([]*request, len(largeStrata))
	for i, p := range largeStrata {
		q := &request{graph: largeGraph, ops: 1, kind: i, p: p + off, key: r*len(largeStrata) + i}
		if i%2 == 1 {
			q.beta = 0.5
		}
		q.req = newRequest(http.MethodGet,
			fmt.Sprintf("/v1/%s/topk?k=%d&p=%s&beta=%s", largeGraph, largeTopK, fmtF(q.p), fmtF(q.beta)), nil)
		out[i] = q
	}
	return out
}

// warm sends one untimed request per transition path, at p values outside
// the strata's range.
func (w *largeSolve) warm(e *env) error {
	for _, beta := range []float64{0, 0.5} {
		w.noteConfig(largeGraph, false, 4, beta)
		var ans topAnswer
		if err := e.get(fmt.Sprintf("/v1/%s/topk?k=%d&p=4&beta=%s", largeGraph, largeTopK, fmtF(beta)), &ans); err != nil {
			return err
		}
	}
	return nil
}

func (w *largeSolve) observe(_ *env, q *request, status int, body []byte) (int, error) {
	if status != http.StatusOK {
		return 1, nil
	}
	w.noteConfig(largeGraph, false, q.p, q.beta)
	var ans topAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return 0, fmt.Errorf("p=%g β=%g: %w", q.p, q.beta, err)
	}
	if len(ans.Top) != largeTopK {
		return 0, fmt.Errorf("p=%g β=%g: %d rows", q.p, q.beta, len(ans.Top))
	}
	for i := 1; i < len(ans.Top); i++ {
		if ans.Top[i].Score > ans.Top[i-1].Score {
			return 0, fmt.Errorf("p=%g β=%g: rows out of order", q.p, q.beta)
		}
	}
	if q.key == w.sample[0] || q.key == w.sample[1] {
		w.kept = append(w.kept, largeAnswer{p: q.p, beta: q.beta, top: ans.Top})
	}
	return 0, nil
}

// check compares the sampled answers' top-k with the oracle, and the β =
// 0.5 one's full /rank vector, which must also sum to 1.
func (w *largeSolve) check(e *env, _ io.Writer) error {
	og := w.oracle(w.g)
	return parallel(len(w.kept), func(i int) error {
		a := w.kept[i]
		ref, err := og.rank(a.p, a.beta)
		if err != nil {
			return err
		}
		if err := checkTop(og, a.top, ref, largeTopK, false, symmetric(rankBound())); err != nil {
			return fmt.Errorf("p=%g β=%g: %w", a.p, a.beta, err)
		}
		if a.beta == 0 {
			return nil
		}
		var full struct {
			Scores []float64 `json:"scores"`
		}
		if err := e.get(fmt.Sprintf("/v1/%s/rank?p=%s&beta=%s", largeGraph, fmtF(a.p), fmtF(a.beta)), &full); err != nil {
			return err
		}
		if err := checkVector(full.Scores, ref, rankBound()); err != nil {
			return fmt.Errorf("p=%g β=%g full vector: %w", a.p, a.beta, err)
		}
		return nil
	})
}

// replay repeats the registry lookup, the cache key, the whole
// Spec.ComputeStats and, under it, the transition build and the engine
// solve, then the lookup of the now-resident vector and its top-k.
func (w *largeSolve) replay(e *env, t *tracer, q *request, parent int) {
	t.call("registry.get", parent, func() { _, _ = e.reg.Get(q.graph) })
	snap := e.snaps[q.graph]
	spec := rankspec.New(q.graph)
	spec.P, spec.Beta = q.p, q.beta
	var key string
	t.call("rankspec.cache_key", parent, func() { key = string(spec.CacheKeyFor(snap)) })
	compute := t.call("rankspec.compute", parent, func() { _, _, _ = spec.ComputeStats(t.ctx, snap) })
	var tr *core.Transition
	t.call("core.transition", compute, func() { tr, _ = core.Blended(snap.Graph, q.p, q.beta) })
	if tr != nil {
		t.solve(compute, snap.Engine(), tr, spec.Options(snap.Graph.NumNodes()))
	}
	if scores := t.rankLookup(e, parent, key); scores != nil {
		t.call("rankspec.top_entries", parent, func() { _ = rankspec.TopEntries(snap.Graph, scores, largeTopK) })
	}
	t.record(e, parent, "GET /v1/{graph}/topk")
}
