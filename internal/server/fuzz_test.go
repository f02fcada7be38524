package server

import (
	"context"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"d2pr/internal/graph"
	"d2pr/internal/jobs"
	"d2pr/internal/registry"
)

// Fuzz targets for the request parsers: the query of the /rank family, the
// /ppr query and JSON body, and the sweep body that /rank/batch and
// /v1/jobs decode. Each is seeded from requests the e2e tests send, so a
// plain `go test` runs the seeds; explore further with, e.g.,
//
//	go test -run '^$' -fuzz '^FuzzParseRankQuery$' -fuzztime 30s ./internal/server
//
// Every target asserts that no input panics and that an accepted request is
// valid by its own rules.

// fuzzServer returns a server over one six-node graph and its snapshot.
func fuzzServer(f *testing.F) (*Server, *registry.Snapshot) {
	f.Helper()
	g, err := graph.FromEdges(graph.Undirected, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 4}, {4, 5},
	})
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(g, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	snap, err := s.reg.Get("default")
	if err != nil {
		f.Fatal(err)
	}
	return s, snap
}

// FuzzParseRankQuery: an accepted query yields a spec that passes Validate
// against the graph's node count.
func FuzzParseRankQuery(f *testing.F) {
	for _, q := range []string{
		"", "p=0.25", "p=1.5", "algo=bogus", "algo=degree&alpha=0.5&seeds=1",
		"algo=hits", "algo=pagerank&p=2", "alpha=2", "alpha=NaN", "alpha=Inf",
		"beta=NaN", "p=-Inf", "p=NaN", "seeds=5", "seeds=1,3", "algo=d2pr&p=2&top=3",
		"p=0.5&beta=0.5", "k=3&p=1", "p=0.5&timeout=50ms",
	} {
		f.Add(q)
	}
	_, snap := fuzzServer(f)
	n := snap.Graph.NumNodes()
	f.Fuzz(func(t *testing.T, query string) {
		r := httptest.NewRequest("GET", "/v1/default/rank", nil)
		r.URL.RawQuery = query
		spec, err := parseRankQuery(r.URL.Query(), snap)
		if err != nil {
			return
		}
		if err := spec.Validate(n); err != nil {
			t.Fatalf("query %q accepted an invalid spec %+v: %v", query, spec, err)
		}
	})
}

// FuzzParsePPRQuery: an accepted query yields a spec that passes Validate
// against the graph's node count, for the seed the query names.
func FuzzParsePPRQuery(f *testing.F) {
	for _, q := range []string{
		"", "seed=0", "seed=1&k=2", "seed=5", "seed=abc", "seed=99", "seed=-3",
		"seed=0&eps=0.5", "seed=0&eps=bogus", "seed=0&eps=NaN", "seed=0&k=0",
		"seed=0&k=999999", "seed=0&alpha=2", "seed=0&alpha=NaN", "seed=0&alpha=Inf",
		"seed=4294967296",
	} {
		f.Add(q)
	}
	s, snap := fuzzServer(f)
	n := snap.Graph.NumNodes()
	f.Fuzz(func(t *testing.T, query string) {
		r := httptest.NewRequest("GET", "/v1/default/ppr", nil)
		r.URL.RawQuery = query
		spec, err := s.parsePPRQuery(r.URL.Query(), snap)
		if err != nil {
			return
		}
		if err := spec.Validate(n); err != nil {
			t.Fatalf("query %q accepted an invalid spec %+v: %v", query, spec, err)
		}
		if seed, _ := strconv.Atoi(r.URL.Query().Get("seed")); int(spec.Seed) != seed {
			t.Fatalf("query %q accepted as seed %d", query, spec.Seed)
		}
	})
}

// FuzzParsePPRBody: an accepted POST /v1/{graph}/ppr body yields a spec that
// passes Validate against the graph's node count.
func FuzzParsePPRBody(f *testing.F) {
	for _, body := range []string{
		`{"seed": 0, "k": 5}`, `{"seed": 0, "bogus": 1}`, `{"seed": "zero"}`,
		`{"k": 5}`, `{"seed": 0}{"seed": 1}`, `{"seed": 3, "alpha": 0.5, "eps": 1e-6}`,
		`{"seed": 4294967296}`, `{"seed": 0, "eps": 0.5}`, ``,
	} {
		f.Add(body)
	}
	s, snap := fuzzServer(f)
	n := snap.Graph.NumNodes()
	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest("POST", "/v1/default/ppr", strings.NewReader(body))
		spec, err := s.parsePPRBody(httptest.NewRecorder(), r, snap)
		if err != nil {
			return
		}
		if err := spec.Validate(n); err != nil {
			t.Fatalf("body %q accepted an invalid spec %+v: %v", body, spec, err)
		}
	})
}

// FuzzSweepBody: a sweep body that decodes and passes Validate — the two
// checks /rank/batch and /v1/jobs make before they consult the graph — has
// at most MaxGridSize configurations and only finite axis values.
func FuzzSweepBody(f *testing.F) {
	for _, body := range []string{
		`{}`, `{"ps": [0, 0.5, 1], "betas": [0], "top_k": 2, "correlate": true}`,
		`{"ps": [0.3, 0.6], "top_k": 3}`, `{"graph": "alpha", "ps": [0.1, 0.2]}`,
		`{"graph": "alpha", "algo": "bogus"}`, `{"graph": "alpha"}{"correlate": true}`,
		`{"seeds": [999], "correlate": true}`, `{"unknown_field": 1}`, `{not json`,
		`{"graph": "web", "ps": [0, 1], "betas": [0.5], "alphas": [0.85, 0.9]}`,
		`{"graph": "g", "ps": [1e308, -1e308], "betas": [1], "alphas": [1e-300]}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
		spec, err := decodeSweep(httptest.NewRecorder(), r)
		if err != nil || spec.Validate() != nil {
			return
		}
		if n := spec.GridSize(); n > jobs.MaxGridSize {
			t.Fatalf("body %q accepted a grid of %d configurations", body, n)
		}
		for _, axis := range [][]float64{spec.Ps, spec.Betas, spec.Alphas} {
			for _, v := range axis {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("body %q accepted axis value %v", body, v)
				}
			}
		}
	})
}
