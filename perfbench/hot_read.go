package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"

	"d2pr/internal/rankspec"
)

// hotRead serves only cache hits: GET /v1/{graph}/topk?k=10 over the 17 p
// values at β = 0 on every paper graph, plus GET /v1/{graph}/ppr for a few
// seeds per graph, with keys drawn from a Zipf law. Every key is warmed in
// setup, so routing, parsing, key building, cache lookup, top-k extraction
// and JSON encoding do the work and the solver does none.
type hotRead struct {
	*base
	// keys are in popularity order; cdf holds the running sums of their
	// Zipf weights, and counts how often the timed phase asked each.
	keys   []hotKey
	cdf    []float64
	counts []int
	// missBody is each key's answer as the warming request got it;
	// hitBody the answer every later request must repeat byte for byte.
	missBody, hitBody [][]byte
}

type hotKey struct {
	graph  string
	target string
	p      float64
	ppr    bool
	seed   int32
}

const (
	hotTopK     = 10
	hotPPRSeeds = 4
	hotPPREps   = 1e-5
	hotPerRound = 1000
	// hotZipfS is the popularity exponent: the key of rank r is asked with
	// probability ∝ r^−s. The project has no request logs to measure it
	// on; 0.8 lies in the range Breslau et al. measured on web proxy
	// traces ("Web Caching and Zipf-like Distributions", INFOCOM 1999:
	// 0.64–0.83).
	hotZipfS = 0.8
)

func (w *hotRead) roundSeconds() float64 { return 0.035 }
func (w *hotRead) perRound() int         { return hotPerRound }

// plan builds the key set over the materialized graphs, with PPR seeds
// drawn from each graph's giant component with the run's seed, and ranks
// it by popularity with one rule: each graph's keys run p = 0, −0.5, 0.5,
// −1, …, 4 at β = 0, then its PPR seeds, and rank r is key r div g of
// graph r mod g, for g graphs in name order. So every graph has keys at
// every popularity level, plain PageRank is each graph's most asked
// ranking, and a PPR key, which serves one seed's view, is rarer than any
// ranking.
func (w *hotRead) plan(e *env) {
	perGraph := make([][]hotKey, len(e.names))
	for gi, name := range e.names {
		for i := 0; i <= 16; i++ {
			p := 0.5 * float64((i+1)/2)
			if i%2 == 1 {
				p = -p
			}
			perGraph[gi] = append(perGraph[gi], hotKey{graph: name, p: p,
				target: fmt.Sprintf("/v1/%s/topk?k=%d&p=%s", name, hotTopK, fmtF(p))})
		}
		giant := giantComponent(e.snaps[name].Graph)
		for _, i := range w.rng.Perm(len(giant))[:min(hotPPRSeeds, len(giant))] {
			s := giant[i]
			perGraph[gi] = append(perGraph[gi], hotKey{graph: name, ppr: true, seed: s,
				target: fmt.Sprintf("/v1/%s/ppr?seed=%d&k=%d&eps=%s", name, s, hotTopK, fmtF(hotPPREps))})
		}
	}
	for j := 0; j < 17+hotPPRSeeds; j++ {
		for _, keys := range perGraph {
			if j < len(keys) {
				w.keys = append(w.keys, keys[j])
			}
		}
	}
	var sum float64
	for r := range w.keys {
		sum += math.Pow(float64(r+1), -hotZipfS)
		w.cdf = append(w.cdf, sum)
	}
	w.counts = make([]int, len(w.keys))
}

// setup materializes the graphs and warms every key through the server.
func (w *hotRead) setup() (*env, error) {
	e, err := w.paperEnv()
	if err != nil {
		return nil, err
	}
	if w.keys == nil {
		w.plan(e)
	}
	w.missBody = make([][]byte, len(w.keys))
	for i, k := range w.keys {
		status, body, _ := e.serve(newRequest(http.MethodGet, k.target, nil))
		if status != http.StatusOK {
			_ = e.close()
			return nil, fmt.Errorf("warming %s: status %d", k.target, status)
		}
		w.missBody[i] = slices.Clone(body)
	}
	return e, nil
}

type topAnswer struct {
	Top []row `json:"top"`
}

// warm checks every warmed answer against the oracle, records the body a
// hit returns, and sends one untimed round. The oracle's graph copies are
// dropped before timing, so that live_heap_mb does not count them.
func (w *hotRead) warm(e *env) error {
	for _, k := range w.keys {
		if !k.ppr {
			w.noteConfig(k.graph, e.snaps[k.graph].Graph.Weighted(), k.p, 0)
		}
	}
	err := parallel(len(w.keys), func(i int) error {
		k := w.keys[i]
		var ans topAnswer
		if err := json.Unmarshal(w.missBody[i], &ans); err != nil {
			return fmt.Errorf("%s: %w", k.target, err)
		}
		og := w.oracle(e.snaps[k.graph].Graph)
		var err error
		if k.ppr {
			var ref []float64
			if ref, err = og.ppr(k.seed); err == nil {
				err = checkTop(og, ans.Top, ref, hotTopK, true, pushRange(og.pushBound(hotPPREps)))
			}
		} else {
			var ref []float64
			if ref, err = og.rank(k.p, 0); err == nil {
				err = checkTop(og, ans.Top, ref, hotTopK, false, symmetric(rankBound()))
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", k.target, err)
		}
		return nil
	})
	w.copies = nil
	if err != nil {
		return err
	}
	w.hitBody = make([][]byte, len(w.keys))
	for i, k := range w.keys {
		status, body, _ := e.serve(newRequest(http.MethodGet, k.target, nil))
		var miss, hit topAnswer
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d on a hit", k.target, status)
		}
		if err := json.Unmarshal(w.missBody[i], &miss); err != nil {
			return err
		}
		if err := json.Unmarshal(body, &hit); err != nil {
			return err
		}
		if !slices.Equal(miss.Top, hit.Top) {
			return fmt.Errorf("%s: a hit returned other rows than the miss", k.target)
		}
		w.hitBody[i] = slices.Clone(body)
	}
	w.missBody = nil
	for _, q := range w.draw() {
		status, body, _ := e.serve(q.req)
		if _, err := w.observe(e, q, status, body); err != nil {
			return err
		}
	}
	clear(w.counts)
	return nil
}

// draw returns one round of Zipf-drawn keys.
func (w *hotRead) draw() []*request {
	out := make([]*request, hotPerRound)
	for i := range out {
		k := sort.SearchFloat64s(w.cdf, w.rng.Float64()*w.cdf[len(w.cdf)-1])
		out[i] = &request{req: newRequest(http.MethodGet, w.keys[k].target, nil), graph: w.keys[k].graph, ops: 1, kind: k, key: k}
	}
	return out
}

func (w *hotRead) round(int) []*request { return w.draw() }

// observe checks that the hit repeats the warmed answer byte for byte.
func (w *hotRead) observe(_ *env, q *request, status int, body []byte) (int, error) {
	w.counts[q.key]++
	if status != http.StatusOK {
		return 1, nil
	}
	if !bytes.Equal(body, w.hitBody[q.key]) {
		return 0, fmt.Errorf("%s: a hit returned another answer than the warmed one", w.keys[q.key].target)
	}
	return 0, nil
}

// check has no answer left to check: every key was checked against the
// oracle at warm-up and every hit against that answer. It reports the
// share of the requests per route and per graph.
func (w *hotRead) check(e *env, log io.Writer) error {
	var total, ppr int
	perGraph := map[string]int{}
	for i, k := range w.keys {
		total += w.counts[i]
		perGraph[k.graph] += w.counts[i]
		if k.ppr {
			ppr += w.counts[i]
		}
	}
	share := func(n int) float64 { return 100 * ratio(float64(n), float64(total)) }
	parts := make([]string, len(e.names))
	for i, name := range e.names {
		parts[i] = fmt.Sprintf("%s %.1f%%", name, share(perGraph[name]))
	}
	fmt.Fprintf(log, "hot-read mix: %d requests, /topk %.1f%%, /ppr %.1f%%; %s\n",
		total, share(total-ppr), share(ppr), strings.Join(parts, ", "))
	return nil
}

// replay repeats the registry lookup, the cache key, the cache lookup
// and, for rank keys, the top-k extraction over the cached vector.
func (w *hotRead) replay(e *env, t *tracer, q *request, parent int) {
	k := w.keys[q.key]
	t.call("registry.get", parent, func() { _, _ = e.reg.Get(k.graph) })
	snap := e.snaps[k.graph]
	if k.ppr {
		spec := rankspec.NewPPR(k.graph, k.seed)
		spec.Epsilon, spec.K = hotPPREps, hotTopK
		var key string
		t.call("rankspec.cache_key", parent, func() { key = string(spec.CacheKeyFor(snap)) })
		t.pprLookup(e, parent, key)
		t.record(e, parent, "GET /v1/{graph}/ppr")
		return
	}
	spec := rankspec.New(k.graph)
	spec.P = k.p
	var key string
	t.call("rankspec.cache_key", parent, func() { key = string(spec.CacheKeyFor(snap)) })
	if scores := t.rankLookup(e, parent, key); scores != nil {
		t.call("rankspec.top_entries", parent, func() { _ = rankspec.TopEntries(snap.Graph, scores, hotTopK) })
	}
	t.record(e, parent, "GET /v1/{graph}/topk")
}
