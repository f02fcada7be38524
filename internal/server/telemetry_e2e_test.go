package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"d2pr/internal/faultinject"
	"d2pr/internal/registry"
	"d2pr/internal/telemetry/promtext"
)

var hexID = regexp.MustCompile(`^[0-9a-f]{16}$`)

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	ts := testServer(t, false)

	// No inbound ID → a generated 16-hex ID on the response.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); !hexID.MatchString(id) {
		t.Errorf("generated request id = %q, want 16 hex chars", id)
	}

	// A well-formed inbound ID is echoed verbatim.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "trace-abc-123")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); id != "trace-abc-123" {
		t.Errorf("echoed request id = %q, want trace-abc-123", id)
	}

	// A malformed inbound ID (non-printable bytes, oversized) is replaced,
	// never reflected.
	for _, bad := range []string{"evil\x80id", strings.Repeat("x", 200)} {
		req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
		req.Header.Set("X-Request-ID", bad)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if id := resp.Header.Get("X-Request-ID"); id == bad || !hexID.MatchString(id) {
			t.Errorf("malformed inbound id %q came back as %q, want a generated replacement", bad, id)
		}
	}
}

func TestServerTimingOnCompute(t *testing.T) {
	_, ts := multiServer(t)

	// Cold request: a fresh solve must carry the full stage breakdown.
	resp, err := http.Get(ts.URL + "/v1/alpha/rank?p=0.25")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := resp.Header.Get("Server-Timing")
	if !strings.Contains(st, "cache;desc=miss") {
		t.Errorf("cold Server-Timing = %q, want cache;desc=miss", st)
	}
	for _, stage := range []string{"queue;dur=", "engine;dur=", "solve;dur="} {
		if !strings.Contains(st, stage) {
			t.Errorf("cold Server-Timing = %q, missing %s", st, stage)
		}
	}

	// Warm repeat: a hit reports the tier and no solve stages (nothing ran).
	resp, err = http.Get(ts.URL + "/v1/alpha/rank?p=0.25")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st = resp.Header.Get("Server-Timing")
	if !strings.Contains(st, "cache;desc=hit") || strings.Contains(st, "solve;dur=") {
		t.Errorf("warm Server-Timing = %q, want cache;desc=hit with no stages", st)
	}

	// PPR path mirrors the contract.
	resp, err = http.Get(ts.URL + "/v1/alpha/ppr?seed=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st = resp.Header.Get("Server-Timing")
	if !strings.Contains(st, "cache;desc=miss") || !strings.Contains(st, "solve;dur=") {
		t.Errorf("ppr Server-Timing = %q, want miss with stages", st)
	}
}

// TestStatusRecorderFlush checks the Flusher passthrough directly: the
// NDJSON job-results stream relies on flushes reaching the client through
// the middleware's recorder.
func TestStatusRecorderFlush(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/x", nil)
	sr := &statusRecorder{ResponseWriter: rec, req: req, status: http.StatusOK}
	var _ http.Flusher = sr
	sr.Flush()
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
}

// TestRewrittenStatusReachesMetrics drives the mux's 404 and 405 fallbacks
// through the middleware and checks (a) the JSON rewrite and (b) that the
// rewritten status — not the swallowed default — is what telemetry records.
func TestRewrittenStatusReachesMetrics(t *testing.T) {
	s, ts := multiServer(t)

	resp, err := http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("404 fallback body is not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 || body.Error != "no such route" {
		t.Errorf("404 fallback = %d %q", resp.StatusCode, body.Error)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/healthz", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("405 fallback body is not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 || body.Error != "method not allowed" {
		t.Errorf("405 fallback = %d %q", resp.StatusCode, body.Error)
	}

	// Both land under the "(no route)" pattern with their rewritten status.
	var found bool
	for _, rs := range s.Telemetry().RouteSummaries() {
		if rs.Route == "(no route)" {
			found = true
			if rs.Count != 2 || rs.Errors != 2 {
				t.Errorf("(no route) summary = %+v, want count 2 errors 2", rs)
			}
		}
	}
	if !found {
		t.Errorf("no (no route) series recorded: %+v", s.Telemetry().RouteSummaries())
	}
	if got := s.Telemetry().Errors(); got != 2 {
		t.Errorf("global errors = %d, want 2", got)
	}
}

// TestMetricsContentNegotiation exercises all three selection paths: default
// JSON, Accept-driven Prometheus, and the explicit ?format= override in both
// directions.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := multiServer(t)

	get := func(path, accept string) (*http.Response, string) {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.String()
	}

	resp, body := get("/metrics", "")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default content type = %q, want JSON", ct)
	}
	if !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("default body is not JSON: %.80s", body)
	}

	resp, body = get("/metrics", "text/plain")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("prometheus content type = %q", ct)
	}
	if _, err := promtext.Parse([]byte(body)); err != nil {
		t.Errorf("Accept-negotiated exposition invalid: %v", err)
	}

	_, body = get("/metrics?format=prometheus", "")
	if _, err := promtext.Parse([]byte(body)); err != nil {
		t.Errorf("?format=prometheus exposition invalid: %v", err)
	}

	resp, body = get("/metrics?format=json", "text/plain")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("?format=json with prometheus Accept = %q, want JSON (query wins)", ct)
	}
}

// TestMetricsPrometheusScrape is the end-to-end acceptance check: drive real
// traffic (rank hits+misses, ppr, a 404), scrape /metrics in Prometheus
// format, validate it with the strict parser, and assert the families the
// dashboards are built on carry the right numbers.
func TestMetricsPrometheusScrape(t *testing.T) {
	_, ts := multiServer(t)
	getJSON(t, ts.URL+"/v1/alpha/rank?p=1", nil)
	getJSON(t, ts.URL+"/v1/alpha/rank?p=1", nil) // hit
	getJSON(t, ts.URL+"/v1/beta/rank?p=0.5", nil)
	getJSON(t, ts.URL+"/v1/alpha/ppr?seed=0", nil)
	getJSON(t, ts.URL+"/v1/nosuch/rank", nil) // 404

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	fams, err := promtext.Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, buf.String())
	}

	// Route histogram: the rank route must expose 2xx and 4xx series with
	// cumulative buckets (validated structurally by the parser already).
	hist, ok := promtext.Find(fams, "d2pr_http_request_duration_seconds")
	if !ok || hist.Type != "histogram" {
		t.Fatalf("request duration histogram missing")
	}
	classes := map[string]bool{}
	for _, s := range hist.Samples {
		if route, _ := s.Get("route"); route == "GET /v1/{graph}/rank" {
			class, _ := s.Get("class")
			classes[class] = true
		}
	}
	if !classes["2xx"] || !classes["4xx"] {
		t.Errorf("rank route histogram classes = %v, want 2xx and 4xx", classes)
	}

	// Latency quantiles per route.
	quant, ok := promtext.Find(fams, "d2pr_http_request_latency_quantile_seconds")
	if !ok {
		t.Fatal("latency quantile family missing")
	}
	qs := map[string]bool{}
	for _, s := range quant.Samples {
		if route, _ := s.Get("route"); route == "GET /v1/{graph}/rank" {
			q, _ := s.Get("quantile")
			qs[q] = true
			if s.Value <= 0 {
				t.Errorf("quantile %s = %v, want > 0", q, s.Value)
			}
		}
	}
	for _, q := range []string{"0.5", "0.95", "0.99"} {
		if !qs[q] {
			t.Errorf("quantile %s missing for rank route", q)
		}
	}

	// Per-graph solver stats: alpha saw one iterative + one push solve, beta
	// one iterative.
	solves, _ := promtext.Find(fams, "d2pr_solves_total")
	got := map[string]float64{}
	for _, s := range solves.Samples {
		g, _ := s.Get("graph")
		k, _ := s.Get("kind")
		got[g+"/"+k] = s.Value
	}
	if got["alpha/iterative"] != 1 || got["alpha/push"] != 1 || got["beta/iterative"] != 1 {
		t.Errorf("solves = %v", got)
	}
	iters, _ := promtext.Find(fams, "d2pr_solve_iterations_total")
	for _, s := range iters.Samples {
		if g, _ := s.Get("graph"); g == "alpha" && s.Value <= 0 {
			t.Errorf("alpha iterations = %v, want > 0", s.Value)
		}
	}
	if _, ok := promtext.Find(fams, "d2pr_solve_last_residual"); !ok {
		t.Error("residual family missing")
	}
	if _, ok := promtext.Find(fams, "d2pr_solve_duration_seconds"); !ok {
		t.Error("solve duration histogram missing")
	}

	// Server-level and runtime families ride the same payload.
	for _, name := range []string{
		"d2pr_rankcache_hits_total", "d2pr_pprcache_misses_total",
		"d2pr_admission_admitted_total", "d2pr_jobs_submitted_total",
		"d2pr_graphs_loaded", "go_goroutines", "go_memstats_heap_alloc_bytes",
	} {
		if _, ok := promtext.Find(fams, name); !ok {
			t.Errorf("family %s missing from scrape", name)
		}
	}
}

// TestEngineBytesReported: once a solve has built a graph's engine, its
// retained bytes appear as `bytes` in the engine block of /info and as
// d2pr_engine_bytes{graph} in the Prometheus exposition, with one value; a
// graph whose engine was never built has neither.
func TestEngineBytesReported(t *testing.T) {
	_, ts := multiServer(t)
	getJSON(t, ts.URL+"/v1/alpha/rank?p=1", nil)
	var info GraphInfo
	if code := getJSON(t, ts.URL+"/v1/alpha/info", &info); code != http.StatusOK {
		t.Fatalf("info: %d", code)
	}
	if info.Engine == nil || info.Engine.Bytes <= 0 {
		t.Fatalf("info engine = %+v, want positive bytes", info.Engine)
	}
	var betaInfo GraphInfo
	if code := getJSON(t, ts.URL+"/v1/beta/info", &betaInfo); code != http.StatusOK || betaInfo.Engine != nil {
		t.Fatalf("beta info: %d, engine %+v, want no engine block", code, betaInfo.Engine)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	fams, err := promtext.Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, buf.String())
	}
	fam, ok := promtext.Find(fams, "d2pr_engine_bytes")
	if !ok || fam.Type != "gauge" {
		t.Fatalf("d2pr_engine_bytes = %+v, want a gauge", fam)
	}
	got := map[string]float64{}
	for _, smp := range fam.Samples {
		g, _ := smp.Get("graph")
		got[g] = smp.Value
	}
	if len(got) != 1 || got["alpha"] != float64(info.Engine.Bytes) {
		t.Errorf("d2pr_engine_bytes samples = %v, want alpha = %d only", got, info.Engine.Bytes)
	}
}

// TestMetricsJSONShape checks the enriched JSON exposition: client_closed,
// per-route percentiles, and the per-graph solves block.
func TestMetricsJSONShape(t *testing.T) {
	_, ts := multiServer(t)
	getJSON(t, ts.URL+"/v1/alpha/rank?p=1", nil)
	var m MetricsResponse
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("status %d", code)
	}
	if m.ClientClosed != 0 {
		t.Errorf("client_closed = %d, want 0", m.ClientClosed)
	}
	if len(m.Solves) != 1 || m.Solves[0].Graph != "alpha" {
		t.Fatalf("solves = %+v", m.Solves)
	}
	if m.Solves[0].IterationsTotal == 0 || m.Solves[0].LastResidual <= 0 {
		t.Errorf("solve stats empty: %+v", m.Solves[0])
	}
	var rank *RouteCount
	for i := range m.Routes {
		if m.Routes[i].Route == "GET /v1/{graph}/rank" {
			rank = &m.Routes[i]
		}
	}
	if rank == nil || rank.P50Ms <= 0 {
		t.Errorf("rank route percentiles missing: %+v", m.Routes)
	}
}

// syncWriter serializes writes from the handler goroutine with reads from
// the test goroutine.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestSlowRequestLogging sets the slow threshold to 1ns so every request is
// an outlier and asserts the WARN record carries the stage breakdown.
func TestSlowRequestLogging(t *testing.T) {
	reg := registry.New()
	if err := reg.AddGraph("alpha", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	var logBuf syncWriter
	s, err := NewMulti(reg, Config{
		Logger:               slog.New(slog.NewTextHandler(&logBuf, nil)),
		SlowRequestThreshold: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	closeServer(t, s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/alpha/rank?p=0.5", nil)
	req.Header.Set("X-Request-ID", "slow-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The middleware logs after the handler returns; poll briefly for the
	// record to land.
	deadline := time.Now().Add(2 * time.Second)
	var out string
	for time.Now().Before(deadline) {
		out = logBuf.String()
		if strings.Contains(out, "slow request") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, want := range []string{
		"slow request", "level=WARN", "request_id=slow-test-1",
		"queue_ms=", "engine_ms=", "solve_ms=", "iterations=", "algo=d2pr", "cache=miss",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-request log missing %q:\n%s", want, out)
		}
	}
}

// TestJobRequestID checks the request-ID contract on the async path: the ID
// of the submitting request is stamped on the job record.
func TestJobRequestID(t *testing.T) {
	_, ts := multiServer(t)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs",
		strings.NewReader(`{"graph": "alpha", "ps": [0.1, 0.2]}`))
	req.Header.Set("X-Request-ID", "job-origin-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub JobSubmitted
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if sub.Job.RequestID != "job-origin-42" {
		t.Errorf("job request_id = %q, want job-origin-42", sub.Job.RequestID)
	}
	var st struct {
		RequestID string `json:"request_id"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%s", ts.URL, sub.Job.ID), &st); code != 200 {
		t.Fatalf("job get status %d", code)
	}
	if st.RequestID != "job-origin-42" {
		t.Errorf("job status request_id = %q, want job-origin-42", st.RequestID)
	}
}

// TestBatchResultsCarrySolverStats checks that fresh (non-cached) rows of a
// synchronous batch report iterations/residual/convergence.
func TestBatchResultsCarrySolverStats(t *testing.T) {
	_, ts := multiServer(t)
	resp, err := http.Post(ts.URL+"/v1/alpha/rank/batch", "application/json",
		strings.NewReader(`{"ps": [0.3, 0.6], "top_k": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	var batch BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(batch.Results) != 2 {
		t.Fatalf("batch = %d, %+v", resp.StatusCode, batch)
	}
	for _, row := range batch.Results {
		if row.Error != "" {
			t.Fatalf("row error: %s", row.Error)
		}
		if row.Cached {
			continue
		}
		if row.Iterations == 0 || !row.Converged {
			t.Errorf("fresh row missing solver stats: %+v", row)
		}
	}
}

// TestMetricsLifecycleFamilies exercises the lifecycle telemetry end to end:
// a successful reload, a failed reload (corrupted file), and a recovered
// compute panic must all be visible in the JSON /metrics body and, through
// the strict promtext parser, in the Prometheus exposition
// (d2pr_panics_total, d2pr_graph_reloads_total{result}, d2pr_graph_state).
func TestMetricsLifecycleFamilies(t *testing.T) {
	faultinject.Enable()
	t.Cleanup(faultinject.Disable)
	_, ts, _, path := chaosServer(t)

	// One healthy reload, one failed reload over a corrupted file, one panic.
	if code := getJSON(t, ts.URL+"/v1/web/rank", nil); code != http.StatusOK {
		t.Fatalf("rank: %d", code)
	}
	reload := func() int {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/graphs/web/reload", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := reload(); code != http.StatusOK {
		t.Fatalf("healthy reload: %d", code)
	}
	if err := os.WriteFile(path, []byte("0 not-a-node\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := reload(); code != http.StatusBadGateway {
		t.Fatalf("corrupt reload: %d, want 502", code)
	}
	faultinject.Arm(faultinject.PointRankCompute, "web", faultinject.Fault{
		Panic: "injected metrics panic", Count: 1,
	})
	if code := getJSON(t, ts.URL+"/v1/web/rank?p=0.25", nil); code != http.StatusInternalServerError {
		t.Fatalf("panicking rank: %d, want 500", code)
	}

	// JSON exposition.
	var mr MetricsResponse
	if code := getJSON(t, ts.URL+"/metrics", &mr); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if mr.Panics < 1 {
		t.Errorf("json panics = %d, want >= 1", mr.Panics)
	}
	if mr.ReloadsOK != 1 || mr.ReloadsFailed != 1 {
		t.Errorf("json reloads = %d ok / %d failed, want 1/1", mr.ReloadsOK, mr.ReloadsFailed)
	}
	if mr.GraphStates["quarantined"] != 1 {
		t.Errorf("json graph_states = %v, want one quarantined (corrupt file)", mr.GraphStates)
	}

	// Prometheus exposition, through the strict parser.
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	fams, err := promtext.Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}

	panics, ok := promtext.Find(fams, "d2pr_panics_total")
	if !ok || panics.Type != "counter" || len(panics.Samples) != 1 || panics.Samples[0].Value < 1 {
		t.Errorf("d2pr_panics_total = %+v, want counter >= 1", panics)
	}
	reloads, ok := promtext.Find(fams, "d2pr_graph_reloads_total")
	if !ok || reloads.Type != "counter" {
		t.Fatal("d2pr_graph_reloads_total missing")
	}
	byResult := map[string]float64{}
	for _, smp := range reloads.Samples {
		r, _ := smp.Get("result")
		byResult[r] = smp.Value
	}
	if byResult["ok"] != 1 || byResult["failed"] != 1 {
		t.Errorf("reloads by result = %v, want ok=1 failed=1", byResult)
	}
	states, ok := promtext.Find(fams, "d2pr_graph_state")
	if !ok || states.Type != "gauge" {
		t.Fatal("d2pr_graph_state missing")
	}
	// Exactly one state sample per graph carries 1; web is quarantined after
	// the corrupt reload, mem never materialized (loading).
	current := map[string]string{}
	perGraph := map[string]int{}
	for _, smp := range states.Samples {
		g, _ := smp.Get("graph")
		st, _ := smp.Get("state")
		if smp.Value == 1 {
			current[g] = st
			perGraph[g]++
		}
	}
	if perGraph["web"] != 1 || perGraph["mem"] != 1 {
		t.Errorf("graphs with multiple active states: %v", perGraph)
	}
	if current["web"] != "quarantined" {
		t.Errorf("web state = %q, want quarantined", current["web"])
	}
	if current["mem"] != "loading" {
		t.Errorf("mem state = %q, want loading", current["mem"])
	}
}
