// End-to-end coverage of the personalized-ranking serving path: the
// synchronous /v1/{graph}/ppr endpoint (query and JSON-body forms, cache
// header, error contract), the asynchronous seed-cohort batch (submit →
// progress → NDJSON results → TTL expiry), and a race hammer proving the
// cache's single-flight dedup under concurrent overlapping seeds.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"d2pr/internal/jobs"
	"d2pr/internal/registry"
)

// postJSON posts a JSON body and decodes the response, returning the status
// code and the X-PPR-Cache header (empty when absent).
func postJSON(t *testing.T, url, body string, out any) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode, resp.Header.Get(pprCacheHeader)
}

// getPPR issues a GET and returns status, cache header, and the decoded body.
func getPPR(t *testing.T, url string, out any) (int, string) {
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
	return resp.StatusCode, resp.Header.Get(pprCacheHeader)
}

func TestE2EPPRServing(t *testing.T) {
	s, ts := e2eServer(t)

	// --- Happy path: first request is a miss and computes.
	var pr PPRResponse
	code, hdr := getPPR(t, ts.URL+"/v1/web/ppr?seed=0&k=5", &pr)
	if code != 200 || hdr != "miss" {
		t.Fatalf("cold ppr: code %d header %q", code, hdr)
	}
	if pr.Graph != "web" || pr.Seed != 0 || pr.Cached || len(pr.Top) == 0 || len(pr.Top) > 5 {
		t.Fatalf("cold ppr body: %+v", pr)
	}
	for i, e := range pr.Top {
		if e.Rank != i+1 || e.Score <= 0 {
			t.Fatalf("row %d malformed: %+v", i, e)
		}
		if i > 0 && e.Score > pr.Top[i-1].Score {
			t.Fatalf("rows out of rank order: %+v", pr.Top)
		}
	}

	// --- Identical request: cache hit, identical payload.
	var warm PPRResponse
	code, hdr = getPPR(t, ts.URL+"/v1/web/ppr?seed=0&k=5", &warm)
	if code != 200 || hdr != "hit" || !warm.Cached {
		t.Fatalf("warm ppr: code %d header %q cached %v", code, hdr, warm.Cached)
	}
	if warm.Config != pr.Config || len(warm.Top) != len(pr.Top) || warm.Top[0] != pr.Top[0] {
		t.Fatalf("warm payload drifted: %+v vs %+v", warm, pr)
	}

	// --- POST body form shares the GET form's cache identity.
	var posted PPRResponse
	code, hdr = postJSON(t, ts.URL+"/v1/web/ppr", `{"seed": 0, "k": 5}`, &posted)
	if code != 200 || hdr != "hit" || posted.Config != pr.Config {
		t.Fatalf("post ppr: code %d header %q config %q (want %q)", code, hdr, posted.Config, pr.Config)
	}

	// --- Different parameters are different cache entries.
	var other PPRResponse
	if code, hdr = getPPR(t, ts.URL+"/v1/web/ppr?seed=0&k=5&alpha=0.5", &other); code != 200 || hdr != "miss" {
		t.Fatalf("alpha variant: code %d header %q", code, hdr)
	}
	if other.Config == pr.Config {
		t.Fatal("alpha variant shares a cache key with the default")
	}

	// --- Error contract.
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/web/ppr", 400},                  // missing seed
		{"/v1/web/ppr?seed=abc", 400},         // malformed seed
		{"/v1/web/ppr?seed=99", 404},          // seed beyond the 12-node graph
		{"/v1/web/ppr?seed=-3", 404},          // negative seed: no such node
		{"/v1/web/ppr?seed=4294967296", 404},  // 2³²: no such node, not node 0
		{"/v1/web/ppr?seed=0&eps=0.5", 400},   // eps out of range
		{"/v1/web/ppr?seed=0&eps=bogus", 400}, // malformed eps
		{"/v1/web/ppr?seed=0&k=0", 400},       // k out of range
		{"/v1/web/ppr?seed=0&k=999999", 400},  // k over MaxPPRK
		{"/v1/web/ppr?seed=0&alpha=2", 400},   // alpha out of range
		{"/v1/nosuch/ppr?seed=0", 404},        // unknown graph
	} {
		var body struct {
			Error string `json:"error"`
		}
		if code, _ := getPPR(t, ts.URL+tc.url, &body); code != tc.want {
			t.Errorf("%s: code %d, want %d", tc.url, code, tc.want)
		} else if body.Error == "" {
			t.Errorf("%s: %d response carries no JSON error", tc.url, tc.want)
		}
	}
	// Malformed POST bodies: unknown field, wrong type, missing seed.
	for _, body := range []string{
		`{"seed": 0, "bogus": 1}`,
		`{"seed": "zero"}`,
		`{"k": 5}`,
		`{"seed": 0}{"seed": 1}`,
	} {
		var eb struct {
			Error string `json:"error"`
		}
		if code, _ := postJSON(t, ts.URL+"/v1/web/ppr", body, &eb); code != 400 || eb.Error == "" {
			t.Errorf("POST %s: code %d error %q, want 400 + JSON error", body, code, eb.Error)
		}
	}

	// --- Metrics: the ppr routes and cache counters are visible.
	var mr MetricsResponse
	if code := getJSON(t, ts.URL+"/metrics", &mr); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if mr.PPRCache.Misses == 0 || mr.PPRCache.Hits == 0 || mr.PPRCache.Len == 0 {
		t.Errorf("ppr cache counters idle: %+v", mr.PPRCache)
	}
	found := false
	for _, rc := range mr.Routes {
		if strings.Contains(rc.Route, "/ppr") && rc.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no /ppr route counter in %+v", mr.Routes)
	}
	_ = s
}

func TestE2EPPRBatchLifecycle(t *testing.T) {
	_, ts := e2eServer(t)

	// --- Input guard: bad cohorts are rejected before anything queues.
	for _, tc := range []struct {
		body string
		hint string
	}{
		{`{"seeds": []}`, "no seeds"},
		{`{"seeds": [1, 2, 1]}`, "duplicate seed 1"},
		{`{"seeds": [0, -2]}`, "negative"},
		{`{"seeds": [0, 99]}`, "out of range"},
		{`{"seeds": [0], "alpha": 7}`, "alpha"},
		{`{"seeds": [0], "bogus": true}`, "bogus"},
		{`{"graph": "mem", "seeds": [0]}`, "posted to"},
	} {
		var eb struct {
			Error string `json:"error"`
		}
		code, _ := postJSON(t, ts.URL+"/v1/web/ppr/batch", tc.body, &eb)
		if code != 400 {
			t.Errorf("batch %s: code %d, want 400", tc.body, code)
			continue
		}
		if !strings.Contains(eb.Error, tc.hint) {
			t.Errorf("batch %s: error %q does not mention %q", tc.body, eb.Error, tc.hint)
		}
	}

	// --- Submit a cohort and follow it to completion.
	var sub JobSubmitted
	code, _ := postJSON(t, ts.URL+"/v1/web/ppr/batch", `{"seeds": [0, 3, 7, 11], "k": 4}`, &sub)
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	if sub.Job.Algo != jobs.AlgoPPR || sub.Job.Total != 4 {
		t.Fatalf("submitted job %+v", sub.Job)
	}
	st := pollJob(t, ts.URL, sub.Job.ID)
	if st.State != jobs.StateDone || st.Completed != 4 || st.Failed != 0 {
		t.Fatalf("terminal job %+v", st)
	}

	// --- JSON results: one row per seed, each carrying its seed and spec.
	var jr JobResultsResponse
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sub.Job.ID+"/results", &jr); code != 200 {
		t.Fatalf("results: %d", code)
	}
	if len(jr.Results) != 4 {
		t.Fatalf("results rows = %d", len(jr.Results))
	}
	seeds := map[int32]bool{}
	for _, row := range jr.Results {
		if row.Seed == nil || row.PPRSpec == nil {
			t.Fatalf("row missing seed/ppr_spec: %+v", row)
		}
		seeds[*row.Seed] = true
		if len(row.Top) == 0 {
			t.Errorf("seed %d: empty top", *row.Seed)
		}
	}
	if len(seeds) != 4 {
		t.Errorf("rows cover seeds %v, want 4 distinct", seeds)
	}

	// --- NDJSON stream: rows then a terminal status line.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.Job.ID + "/results?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var rows, statusLines int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(line, &fields); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if _, ok := fields["job"]; ok {
			statusLines++
			continue
		}
		rows++
	}
	if rows != 4 || statusLines != 1 {
		t.Fatalf("stream delivered %d rows, %d status lines", rows, statusLines)
	}

	// --- The cohort warmed the synchronous path: same spec, cache hit.
	var pr PPRResponse
	if code, hdr := getPPR(t, ts.URL+"/v1/web/ppr?seed=7&k=4", &pr); code != 200 || hdr != "hit" {
		t.Fatalf("post-cohort GET: code %d header %q", code, hdr)
	}
}

// TestE2EPPRBatchTTLExpiry: finished cohort jobs expire from the job table
// after the TTL; their cache entries outlive them.
func TestE2EPPRBatchTTLExpiry(t *testing.T) {
	reg := registry.New()
	if err := reg.AddGraph("mem", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	s, err := NewMulti(reg, Config{JobWorkers: 2, JobTTL: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	closeServer(t, s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var sub JobSubmitted
	if code, _ := postJSON(t, ts.URL+"/v1/mem/ppr/batch", `{"seeds": [0, 5]}`, &sub); code != 202 {
		t.Fatalf("submit: %d", code)
	}
	pollJob(t, ts.URL, sub.Job.ID)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+sub.Job.ID, nil); code == 404 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The PPR cache is unaffected by job expiry: the seeds still serve hot.
	if code, hdr := getPPR(t, ts.URL+"/v1/mem/ppr?seed=5", nil); code != 200 || hdr != "hit" {
		t.Fatalf("post-expiry GET: code %d header %q", code, hdr)
	}
}

// TestPPRConcurrentSingleflight is the race hammer: many goroutines request
// overlapping seeds concurrently; single-flight dedup means the number of
// push solves (cache misses) never exceeds the number of distinct
// configurations, no matter the interleaving. Run with -race in CI.
func TestPPRConcurrentSingleflight(t *testing.T) {
	s, ts := multiServer(t)

	const (
		goroutines = 24
		perWorker  = 30
		seedSpace  = 6 // "alpha" graph has 6 nodes → 6 distinct configs
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seed := (w + i) % seedSpace
				resp, err := http.Get(fmt.Sprintf("%s/v1/alpha/ppr?seed=%d&k=4", ts.URL, seed))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("seed %d: status %d", seed, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.PPRCache().Stats()
	total := st.Hits + st.Misses + st.Shared
	if want := uint64(goroutines * perWorker); total != want {
		t.Fatalf("cache saw %d requests, want %d (stats %+v)", total, want, st)
	}
	if st.Misses > seedSpace {
		t.Errorf("%d computes for %d distinct seeds — single-flight failed (stats %+v)", st.Misses, seedSpace, st)
	}
	if st.Hits == 0 {
		t.Errorf("no cache hits under hammer (stats %+v)", st)
	}
}
