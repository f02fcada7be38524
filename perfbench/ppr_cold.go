package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"d2pr/internal/core"
	"d2pr/internal/rankspec"
)

// pprCold asks GET /v1/{graph}/ppr?seed=… on the paper graphs for seeds
// not requested before, at the server's default ε. Forward push and its
// O(n) result handling do the work; the caches only admit.
type pprCold struct {
	*base
	names []string
	// order lists each graph's giant-component nodes in the run's seeded
	// order; next is how many of them have been asked for.
	order map[string][]int32
	next  int
	kept  []pprAnswer
	// worst is the largest shortfall ref − p̂ the check saw.
	mu    sync.Mutex
	worst float64
}

type pprAnswer struct {
	graph string
	seed  int32
	top   []row
}

type pprResponse struct {
	Seed   int32 `json:"seed"`
	Cached bool  `json:"cached"`
	Top    []row `json:"top"`
}

// pprColdK is the server's default top-k for /ppr (rankspec.DefaultPPRK):
// the requests leave k, like ε, at the serving default.
const pprColdK = rankspec.DefaultPPRK

func (w *pprCold) roundSeconds() float64 { return 2.4 }
func (w *pprCold) perRound() int         { return len(w.names) }

func (w *pprCold) setup() (*env, error) {
	e, err := w.paperEnv()
	if err != nil {
		return nil, err
	}
	if w.order == nil {
		w.names = e.names
		w.order = map[string][]int32{}
		for _, name := range e.names {
			giant := giantComponent(e.snaps[name].Graph)
			perm := w.rng.Perm(len(giant))
			seeds := make([]int32, len(giant))
			for i, j := range perm {
				seeds[i] = giant[j]
			}
			w.order[name] = seeds
		}
	}
	return e, nil
}

// round asks each graph, in name order, for its next fresh seed. Seeds
// come from the giant component: a seed in a tiny component finishes its
// push in a handful of steps and would make the cost of a round depend on
// the seed.
func (w *pprCold) round(int) []*request {
	out := make([]*request, len(w.names))
	for i, name := range w.names {
		seeds := w.order[name]
		s := seeds[w.next%len(seeds)]
		out[i] = &request{req: newRequest(http.MethodGet, fmt.Sprintf("/v1/%s/ppr?seed=%d", name, s), nil),
			graph: name, ops: 1, kind: i, seed: s}
	}
	w.next++
	return out
}

func (w *pprCold) warm(e *env) error {
	for _, q := range w.round(0) {
		status, body, _ := e.serve(q.req)
		if _, err := w.observe(e, q, status, body); err != nil {
			return err
		}
	}
	return nil
}

// observe checks the answer is a fresh solve for the asked seed and keeps
// its rows for the oracle.
func (w *pprCold) observe(_ *env, q *request, status int, body []byte) (int, error) {
	if status != http.StatusOK {
		return 1, nil
	}
	var resp pprResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("%s seed %d: %w", q.graph, q.seed, err)
	}
	if resp.Seed != q.seed || resp.Cached {
		return 0, fmt.Errorf("%s seed %d: answered seed %d, cached %v", q.graph, q.seed, resp.Seed, resp.Cached)
	}
	w.kept = append(w.kept, pprAnswer{graph: q.graph, seed: q.seed, top: resp.Top})
	return 0, nil
}

// check holds every row against the forward-push guarantee:
// 0 ≤ ref(v) − p̂(v) ≤ ε·(arcs + isolated nodes).
func (w *pprCold) check(e *env, log io.Writer) error {
	err := parallel(len(w.kept), func(i int) error {
		a := w.kept[i]
		og := w.oracle(e.snaps[a.graph].Graph)
		ref, err := og.ppr(a.seed)
		if err != nil {
			return err
		}
		if err := checkTop(og, a.top, ref, pprColdK, true, pushRange(og.pushBound(core.DefaultPPREpsilon))); err != nil {
			return fmt.Errorf("%s seed %d: %w", a.graph, a.seed, err)
		}
		w.mu.Lock()
		for _, r := range a.top {
			w.worst = max(w.worst, ref[r.Node]-r.Score)
		}
		w.mu.Unlock()
		return nil
	})
	fmt.Fprintf(log, "ppr check: %d answers, largest shortfall ref − p̂ %.3g\n", len(w.kept), w.worst)
	return err
}

// replay repeats the registry lookup, the cache key, the whole
// PPRSpec.ComputeStats and, under it, the bare push, then the now-resident
// cache entry's lookup.
func (w *pprCold) replay(e *env, t *tracer, q *request, parent int) {
	t.call("registry.get", parent, func() { _, _ = e.reg.Get(q.graph) })
	snap := e.snaps[q.graph]
	spec := rankspec.NewPPR(q.graph, q.seed)
	var key string
	t.call("rankspec.cache_key", parent, func() { key = string(spec.CacheKeyFor(snap)) })
	compute := t.call("rankspec.ppr_compute", parent, func() { _, _, _ = spec.ComputeStats(t.ctx, snap) })
	t.push(compute, snap.Engine(), q.seed, spec.Epsilon)
	t.pprLookup(e, parent, key)
	t.record(e, parent, "GET /v1/{graph}/ppr")
}
