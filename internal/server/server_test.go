package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"d2pr/internal/graph"
	"d2pr/internal/rankspec"
	"d2pr/internal/registry"
	"d2pr/internal/stats"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(graph.Undirected, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 4}, {4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testServer(t *testing.T, withSig bool) *httptest.Server {
	t.Helper()
	var sig []float64
	if withSig {
		sig = []float64{0.1, 0.9, 0.4, 0.8, 0.3, 0.7}
	}
	s, err := New(testGraph(t), sig)
	if err != nil {
		t.Fatal(err)
	}
	closeServer(t, s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// closeServer drains the job subsystem when the test ends (stops the TTL
// janitor goroutine).
func closeServer(t *testing.T, s *Server) {
	t.Helper()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
}

// multiServer builds a two-graph server: "alpha" (with significance) and
// "beta" (without).
func multiServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	reg := registry.New()
	if err := reg.AddGraph("alpha", testGraph(t), []float64{0.1, 0.9, 0.4, 0.8, 0.3, 0.7}); err != nil {
		t.Fatal(err)
	}
	g2, err := graph.FromEdges(graph.Undirected, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.AddGraph("beta", g2, nil); err != nil {
		t.Fatal(err)
	}
	s, err := NewMulti(reg, Config{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	closeServer(t, s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts := testServer(t, false)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestGraphsEndpoint(t *testing.T) {
	_, ts := multiServer(t)
	var resp GraphsResponse
	if code := getJSON(t, ts.URL+"/v1/graphs", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Graphs) != 2 {
		t.Fatalf("graphs = %+v", resp.Graphs)
	}
	if resp.Graphs[0].Name != "alpha" || resp.Graphs[1].Name != "beta" {
		t.Errorf("names not sorted: %+v", resp.Graphs)
	}
	// In-memory graphs materialize on first Get; none touched yet means the
	// listing must not force loads. (AddGraph entries still report unloaded
	// until first use.)
	for _, g := range resp.Graphs {
		if g.Loaded {
			t.Errorf("graph %s loaded before first request", g.Name)
		}
	}
}

func TestInfoEndpoint(t *testing.T) {
	ts := testServer(t, true)
	var info GraphInfo
	if code := getJSON(t, ts.URL+"/v1/default/info", &info); code != 200 {
		t.Fatalf("status %d", code)
	}
	if info.Nodes != 6 || info.Edges != 6 || info.Kind != "undirected" {
		t.Errorf("info = %+v", info)
	}
	if !info.HasSignificance {
		t.Error("significance flag missing")
	}
}

func TestUnknownGraph(t *testing.T) {
	ts := testServer(t, false)
	for _, path := range []string{"/v1/nosuch/info", "/v1/nosuch/rank", "/v1/nosuch/topk", "/v1/nosuch/node/0", "/v1/nosuch/correlate"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, code)
		}
	}
}

func TestRankTopK(t *testing.T) {
	ts := testServer(t, false)
	var resp RankResponse
	if code := getJSON(t, ts.URL+"/v1/default/rank?algo=d2pr&p=2&top=3", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Top) != 3 {
		t.Fatalf("top entries = %d", len(resp.Top))
	}
	if resp.Top[0].Rank != 1 || resp.Top[0].Score < resp.Top[2].Score {
		t.Errorf("top-k not ordered: %+v", resp.Top)
	}
	if len(resp.Scores) != 0 {
		t.Error("full scores must be omitted with top")
	}
}

func TestTopKEndpoint(t *testing.T) {
	ts := testServer(t, false)
	var resp RankResponse
	if code := getJSON(t, ts.URL+"/v1/default/topk?k=3&p=1", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Top) != 3 || len(resp.Scores) != 0 {
		t.Fatalf("topk response = %+v", resp)
	}
	for i := 1; i < len(resp.Top); i++ {
		if resp.Top[i].Score > resp.Top[i-1].Score {
			t.Errorf("topk not sorted: %+v", resp.Top)
		}
	}
	// Default k is 10, clamped to n=6.
	var dflt RankResponse
	if code := getJSON(t, ts.URL+"/v1/default/topk", &dflt); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(dflt.Top) != 6 {
		t.Errorf("default topk entries = %d, want all 6", len(dflt.Top))
	}
	if code := getJSON(t, ts.URL+"/v1/default/topk?k=0", nil); code != http.StatusBadRequest {
		t.Errorf("k=0: status %d, want 400", code)
	}
}

func TestRankFullScores(t *testing.T) {
	ts := testServer(t, false)
	var resp RankResponse
	if code := getJSON(t, ts.URL+"/v1/default/rank", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Scores) != 6 {
		t.Fatalf("scores = %d", len(resp.Scores))
	}
	var sum float64
	for _, s := range resp.Scores {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("score sum = %v", sum)
	}
}

func TestRankAlgorithms(t *testing.T) {
	ts := testServer(t, false)
	for _, algo := range []string{"d2pr", "pagerank", "hits", "degree"} {
		var resp RankResponse
		if code := getJSON(t, fmt.Sprintf("%s/v1/default/rank?algo=%s", ts.URL, algo), &resp); code != 200 {
			t.Errorf("%s: status %d", algo, code)
		}
	}
}

func TestRankSeeds(t *testing.T) {
	ts := testServer(t, false)
	var seeded, plain RankResponse
	getJSON(t, ts.URL+"/v1/default/rank?seeds=5", &seeded)
	getJSON(t, ts.URL+"/v1/default/rank", &plain)
	if seeded.Scores[5] <= plain.Scores[5] {
		t.Error("seeding node 5 must raise its score")
	}
}

func TestRankBadInputs(t *testing.T) {
	ts := testServer(t, false)
	for _, q := range []string{
		"algo=bogus", "p=x", "alpha=2", "beta=-1", "seeds=99", "seeds=zz", "top=0", "top=x",
	} {
		if code := getJSON(t, ts.URL+"/v1/default/rank?"+q, nil); code != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, code)
		}
	}
}

func TestNodeEndpoint(t *testing.T) {
	ts := testServer(t, false)
	var resp NodeResponse
	if code := getJSON(t, ts.URL+"/v1/default/node/0?p=0", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Node != 0 || resp.Degree != 3 || resp.Rank < 1 {
		t.Errorf("node response = %+v", resp)
	}
	if code := getJSON(t, ts.URL+"/v1/default/node/99", nil); code != http.StatusNotFound {
		t.Errorf("unknown node: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/default/node/xyz", nil); code != http.StatusNotFound {
		t.Errorf("bad node id: status %d, want 404", code)
	}
}

func TestCorrelateEndpoint(t *testing.T) {
	s, ts := multiServer(t)
	var resp CorrelateResponse
	if code := getJSON(t, ts.URL+"/v1/alpha/correlate?p=1", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	// Both ρ are exactly stats.Spearman of the cached scores.
	snap, err := s.reg.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	spec := rankspec.New("alpha")
	spec.P = 1
	scores, ok := s.Cache().Lookup(spec.CacheKeyFor(snap))
	if !ok {
		t.Fatal("scores not cached")
	}
	if want := stats.Spearman(scores, snap.Significance); resp.Spearman != want {
		t.Errorf("spearman = %v, want %v", resp.Spearman, want)
	}
	if want := stats.Spearman(scores, rankspec.DegreeVector(snap.Graph)); resp.DegreeR != want {
		t.Errorf("degree_spearman = %v, want %v", resp.DegreeR, want)
	}
	if code := getJSON(t, ts.URL+"/v1/beta/correlate", nil); code != http.StatusNotFound {
		t.Errorf("no significance: status %d, want 404", code)
	}
}

func TestCacheStability(t *testing.T) {
	ts := testServer(t, false)
	var a, b RankResponse
	getJSON(t, ts.URL+"/v1/default/rank?p=1.5", &a)
	getJSON(t, ts.URL+"/v1/default/rank?p=1.5", &b)
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatal("cached result differs")
		}
	}
}

// TestCacheSharedAcrossGraphs verifies cache isolation: identical parameters
// on different graphs must not collide.
func TestCacheIsolationAcrossGraphs(t *testing.T) {
	_, ts := multiServer(t)
	var a, b RankResponse
	getJSON(t, ts.URL+"/v1/alpha/rank?p=1", &a)
	getJSON(t, ts.URL+"/v1/beta/rank?p=1", &b)
	if len(a.Scores) == len(b.Scores) {
		t.Fatalf("test graphs must differ in size")
	}
	if a.Config == b.Config {
		t.Errorf("cache keys collide across graphs: %q", a.Config)
	}
}

// TestEquivalentConfigsShareCacheSlot: algorithms that ignore p/β must map
// equivalent requests to one cache entry.
func TestEquivalentConfigsShareCacheSlot(t *testing.T) {
	s, ts := multiServer(t)
	getJSON(t, ts.URL+"/v1/alpha/rank?algo=pagerank&p=1", nil)
	getJSON(t, ts.URL+"/v1/alpha/rank?algo=pagerank&p=2", nil)
	st := s.Cache().Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss + 1 hit (p ignored by pagerank)", st)
	}
	// degree ignores every solver option; hits ignores alpha and seeds.
	getJSON(t, ts.URL+"/v1/alpha/rank?algo=degree&alpha=0.5&seeds=1", nil)
	getJSON(t, ts.URL+"/v1/alpha/rank?algo=degree", nil)
	getJSON(t, ts.URL+"/v1/alpha/rank?algo=hits&alpha=0.5&seeds=1", nil)
	getJSON(t, ts.URL+"/v1/alpha/rank?algo=hits", nil)
	st = s.Cache().Stats()
	if st.Misses != 3 || st.Hits != 3 {
		t.Errorf("stats = %+v, want 3 misses + 3 hits after degree/hits dedup", st)
	}
}

func TestConcurrentRequests(t *testing.T) {
	_, ts := multiServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := "alpha"
			if i%2 == 0 {
				name = "beta"
			}
			url := fmt.Sprintf("%s/v1/%s/rank?p=%d&top=3", ts.URL, name, i%4)
			resp, err := http.Get(url)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != 200 {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := multiServer(t)
	getJSON(t, ts.URL+"/v1/alpha/rank?p=1", nil)
	getJSON(t, ts.URL+"/v1/alpha/rank?p=1", nil)
	getJSON(t, ts.URL+"/v1/nosuch/rank", nil)
	var m MetricsResponse
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("status %d", code)
	}
	if m.Requests != 3 {
		t.Errorf("requests = %d, want 3", m.Requests)
	}
	if m.Errors != 1 {
		t.Errorf("errors = %d, want 1", m.Errors)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v", m.Cache)
	}
	found := false
	for _, rc := range m.Routes {
		if rc.Route == "GET /v1/{graph}/rank" && rc.Count == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("per-route counters = %+v", m.Routes)
	}
	if m.GraphsRegistry != 2 || m.GraphsLoaded != 1 {
		t.Errorf("graph counts = %d registered / %d loaded, want 2/1", m.GraphsRegistry, m.GraphsLoaded)
	}
}

func TestWarm(t *testing.T) {
	s, _ := multiServer(t)
	// A value no request could carry (-warm p=0,NaN) is refused up front.
	if _, err := s.Warm([]float64{0, math.NaN()}, 0); err == nil {
		t.Error("warm accepted p = NaN")
	}
	done, err := s.Warm([]float64{0, 0.5, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if got := s.Cache().Len(); got != 6 {
		t.Errorf("cache len after warm = %d, want 6 (2 graphs × 3 p)", got)
	}
	// A request matching a warmed configuration must be a pure cache hit.
	before := s.Cache().Stats().Hits
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code := getJSON(t, ts.URL+"/v1/alpha/rank?p=0.5", nil); code != 200 {
		t.Fatalf("status %d", code)
	}
	if after := s.Cache().Stats().Hits; after != before+1 {
		t.Errorf("warmed config was not served from cache (hits %d → %d)", before, after)
	}
}

// TestStatusCodesAndErrorShape is the table-driven contract test for the
// error surface: every error response (including the mux's own unmatched-
// route and method-mismatch fallbacks) must carry the right status code and
// a JSON body with Content-Type: application/json. Unknown graph names are
// 404 — never 400 — on every /v1/{graph}/... route.
func TestStatusCodesAndErrorShape(t *testing.T) {
	_, ts := multiServer(t)
	cases := []struct {
		method string
		path   string
		body   string
		want   int
	}{
		// Unknown graph → 404 on every graph-scoped route.
		{"GET", "/v1/nosuch/info", "", 404},
		{"GET", "/v1/nosuch/rank", "", 404},
		{"GET", "/v1/nosuch/topk", "", 404},
		{"GET", "/v1/nosuch/node/0", "", 404},
		{"GET", "/v1/nosuch/correlate", "", 404},
		{"POST", "/v1/nosuch/rank/batch", "{}", 404},
		// Malformed parameters → 400.
		{"GET", "/v1/alpha/rank?algo=bogus", "", 400},
		{"GET", "/v1/alpha/rank?alpha=2", "", 400},
		{"GET", "/v1/alpha/rank?top=0", "", 400},
		{"GET", "/v1/alpha/topk?k=-1", "", 400},
		// Unknown node → 404; missing significance → 404.
		{"GET", "/v1/alpha/node/999", "", 404},
		{"GET", "/v1/beta/correlate", "", 404},
		// Batch: bad body / oversized grid / graph mismatch → 400.
		{"POST", "/v1/alpha/rank/batch", "{not json", 400},
		{"POST", "/v1/alpha/rank/batch", `{"unknown_field": 1}`, 400},
		{"POST", "/v1/alpha/rank/batch", `{"graph": "beta"}`, 400},
		// Correlating a graph without significance → 404 (matches
		// /correlate); a seed error must stay 400 even when the spec also
		// has the correlate problem (first validation failure wins).
		{"POST", "/v1/beta/rank/batch", `{"correlate": true}`, 404},
		{"POST", "/v1/beta/rank/batch", `{"seeds": [999], "correlate": true}`, 400},
		// Jobs: unknown id → 404 everywhere; bad submissions → 400/404.
		{"GET", "/v1/jobs/job-999999", "", 404},
		{"DELETE", "/v1/jobs/job-999999", "", 404},
		{"GET", "/v1/jobs/job-999999/results", "", 404},
		{"POST", "/v1/jobs", "{not json", 400},
		{"POST", "/v1/jobs", `{"graph": "alpha"}{"correlate": true}`, 400}, // trailing JSON
		{"POST", "/v1/jobs", `{"ps": [0.5]}`, 400},                         // missing graph is malformed, not unknown
		{"POST", "/v1/jobs", `{"graph": "nosuch"}`, 404},
		{"POST", "/v1/jobs", `{"graph": "alpha", "algo": "bogus"}`, 400},
		// Unmatched routes → JSON 404 (not the mux's text/plain default).
		{"GET", "/nope", "", 404},
		{"GET", "/v1", "", 404},
		{"GET", "/v1/alpha/bogus", "", 404},
		{"GET", "/v1/jobs/job-000001/bogus", "", 404},
		// Method mismatches → JSON 405.
		{"POST", "/v1/graphs", "", 405},
		{"DELETE", "/v1/alpha/rank", "", 405},
		{"PUT", "/v1/jobs", "", 405},
	}
	for _, tc := range cases {
		name := tc.method + " " + tc.path
		var body *strings.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		} else {
			body = strings.NewReader("")
		}
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", name, ct)
		}
		var eb struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Errorf("%s: body is not an error JSON: %v", name, err)
		} else if eb.Error == "" {
			t.Errorf("%s: empty error message", name)
		}
		resp.Body.Close()
	}
}

// TestBatchEndpoint: a small synchronous sweep shares one snapshot, returns
// a row per configuration, and leaves the cache warm for /rank.
func TestBatchEndpoint(t *testing.T) {
	s, ts := multiServer(t)
	body := `{"ps": [0, 0.5, 1], "betas": [0], "top_k": 2, "correlate": true}`
	resp, err := http.Post(ts.URL+"/v1/alpha/rank/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Count != 3 || len(br.Results) != 3 {
		t.Fatalf("batch = %+v", br)
	}
	for _, row := range br.Results {
		if row.Error != "" || row.Cached || len(row.Top) != 2 || row.Spearman == nil {
			t.Errorf("row = %+v", row)
		}
	}
	if got := s.Cache().Len(); got != 3 {
		t.Errorf("cache len after batch = %d, want 3", got)
	}
	// The batch solves now serve synchronous requests as cache hits.
	before := s.Cache().Stats().Hits
	var rr RankResponse
	if code := getJSON(t, ts.URL+"/v1/alpha/rank?p=0.5", &rr); code != 200 {
		t.Fatalf("rank after batch: %d", code)
	}
	if after := s.Cache().Stats().Hits; after != before+1 {
		t.Errorf("batch result not hit by /rank (hits %d → %d)", before, after)
	}
	if rr.Config != br.Results[1].Config {
		t.Errorf("config mismatch: rank %q vs batch %q", rr.Config, br.Results[1].Config)
	}
	// Oversized grids are rejected with a pointer to the async route.
	big := fmt.Sprintf(`{"ps": %s}`, floatsJSON(MaxSyncGrid+1))
	resp2, err := http.Post(ts.URL+"/v1/alpha/rank/batch", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Errorf("oversized grid: status %d, want 400", resp2.StatusCode)
	}
}

// floatsJSON renders a JSON array of n distinct floats.
func floatsJSON(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf("%g", float64(i)/100)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// TestReservedJobsGraphName: a registry containing a graph named "jobs"
// would be shadowed by the job routes and must be rejected at construction.
func TestReservedJobsGraphName(t *testing.T) {
	reg := registry.New()
	if err := reg.AddGraph("jobs", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMulti(reg, Config{}); err == nil {
		t.Error(`graph named "jobs" must be rejected`)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("nil graph must error")
	}
	if _, err := NewMulti(nil, Config{}); err == nil {
		t.Error("nil registry must error")
	}
	if _, err := NewMulti(registry.New(), Config{}); err == nil {
		t.Error("empty registry must error")
	}
	g, _ := graph.FromEdges(graph.Undirected, [][2]int32{{0, 1}})
	if _, err := New(g, []float64{1}); err == nil {
		t.Error("significance length mismatch must error")
	}
}
