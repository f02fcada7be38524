// End-to-end tests for the admission layer: per-graph solve budgets shedding
// with 429 + Retry-After while cached requests keep serving, the stale-score
// fallback, request deadlines (?timeout= → 504), and non-finite spec
// parameters bouncing with 400 before they reach the cache.
package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"d2pr/internal/core"
	"d2pr/internal/dataset"
	"d2pr/internal/graph"
	"d2pr/internal/registry"
)

// admServer builds a one-graph server with an explicit admission/cache
// configuration and returns it alongside its test listener.
func admServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	reg := registry.New()
	if err := reg.AddGraph("mem", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	s, err := NewMulti(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	closeServer(t, s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// getRank issues a GET and returns the response with the body decoded into a
// RankResponse when the status is 200.
func getRank(t *testing.T, url string) (*http.Response, RankResponse) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body RankResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp, body
}

// blockSolves installs a hook that parks every admitted solve until the
// returned release func runs. The signal channel reports each solve reaching
// the hook (i.e. holding an admission slot).
func blockSolves(t *testing.T, s *Server) (signal chan string, release func()) {
	t.Helper()
	block := make(chan struct{})
	signal = make(chan string, 16)
	s.hookSolve = func(graph string) {
		signal <- graph
		<-block
	}
	var released bool
	release = func() {
		if !released {
			released = true
			close(block)
		}
	}
	t.Cleanup(release)
	return signal, release
}

// TestAdmissionShedsAndServesCached: with the graph's one solve slot held and
// no queue, a cold request is shed with 429 + Retry-After while a cached
// configuration still serves — hits never touch the budget.
func TestAdmissionShedsAndServesCached(t *testing.T) {
	s, ts := admServer(t, Config{CacheSize: 8, MaxConcurrent: 1, MaxQueue: -1})

	// Warm one configuration before installing the blocking hook.
	if resp, _ := getRank(t, ts.URL+"/v1/mem/rank?p=0"); resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("warm request: %d %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	signal, release := blockSolves(t, s)
	holderDone := make(chan *http.Response, 1)
	go func() {
		resp, _ := http.Get(ts.URL + "/v1/mem/rank?p=0.5")
		holderDone <- resp
	}()
	<-signal // the cold solve now owns the graph's only slot

	// A different cold configuration is shed immediately.
	resp, _ := getRank(t, ts.URL+"/v1/mem/rank?p=0.9")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated cold request: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}

	// The warm configuration still serves from cache.
	resp, _ = getRank(t, ts.URL+"/v1/mem/rank?p=0")
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("cached request under saturation: %d %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	release()
	holder := <-holderDone
	if holder.StatusCode != 200 {
		t.Fatalf("slot holder finished with %d", holder.StatusCode)
	}
	holder.Body.Close()

	var m MetricsResponse
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if m.Admission.Shed != 1 {
		t.Errorf("admission.shed = %d, want 1", m.Admission.Shed)
	}
	if m.Admission.Running != 0 {
		t.Errorf("admission.running = %d after drain", m.Admission.Running)
	}
}

// TestStaleScoreBeatsShedding: a configuration evicted from the resident
// cache is served from the stale tier (X-Cache: stale) instead of a 429 when
// the graph's budget is saturated.
func TestStaleScoreBeatsShedding(t *testing.T) {
	s, ts := admServer(t, Config{CacheSize: 1, MaxConcurrent: 1, MaxQueue: -1})

	resp, fresh := getRank(t, ts.URL+"/v1/mem/rank?p=0")
	if resp.StatusCode != 200 {
		t.Fatalf("first solve: %d", resp.StatusCode)
	}
	// A second configuration evicts p=0 into the stale tier.
	if resp, _ := getRank(t, ts.URL+"/v1/mem/rank?p=0.5"); resp.StatusCode != 200 {
		t.Fatalf("evicting solve: %d", resp.StatusCode)
	}

	signal, release := blockSolves(t, s)
	defer release()
	go http.Get(ts.URL + "/v1/mem/rank?p=0.9") //nolint:errcheck // drained via release
	<-signal

	// p=0 is no longer resident; its recompute would shed — the stale copy
	// serves instead, byte-identical to the original solve.
	resp, stale := getRank(t, ts.URL+"/v1/mem/rank?p=0")
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "stale" {
		t.Fatalf("stale fallback: %d %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !reflect.DeepEqual(fresh.Scores, stale.Scores) {
		t.Error("stale scores differ from the original solve")
	}

	// A configuration with no stale copy still sheds.
	if resp, _ := getRank(t, ts.URL+"/v1/mem/rank?p=0.25"); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("never-solved config: %d, want 429", resp.StatusCode)
	}
}

// TestRequestTimeout: ?timeout= puts a deadline on the request; a solve that
// cannot finish in time comes back 504 and is counted in /metrics. Malformed
// timeouts are 400.
func TestRequestTimeout(t *testing.T) {
	s, ts := admServer(t, Config{CacheSize: 8})
	if resp, _ := getRank(t, ts.URL+"/v1/mem/rank?p=0.5&timeout=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout: %d, want 400", resp.StatusCode)
	}
	if resp, _ := getRank(t, ts.URL+"/v1/mem/rank?p=0.5&timeout=-1s"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative timeout: %d, want 400", resp.StatusCode)
	}

	_, release := blockSolves(t, s)
	defer release()
	start := time.Now()
	resp, _ := getRank(t, ts.URL+"/v1/mem/rank?p=0.5&timeout=50ms")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out solve: %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("504 took %s; deadline did not propagate", elapsed)
	}
	var m MetricsResponse
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if m.DeadlineExceeded != 1 {
		t.Errorf("deadline_exceeded = %d, want 1", m.DeadlineExceeded)
	}
}

// TestHITSMissFreesSlotAtDeadline: a HITS miss whose deadline expires
// answers 504 and frees the graph's one admission slot at HITS's next
// context poll, so a pagerank miss right after it gets the slot instead of a
// 429. On the test graph HITS takes 446 rounds to converge (1.6 s on a
// 2-vCPU Xeon); the bound allows ten rounds, and at least 200 ms.
func TestHITSMissFreesSlotAtDeadline(t *testing.T) {
	g := dataset.BarabasiAlbert(100000, 2, 1)
	start := time.Now()
	if _, err := core.HITS(context.Background(), g, core.Options{MaxIter: 1}); err != nil {
		t.Fatal(err)
	}
	bound := max(200*time.Millisecond, 10*time.Since(start))
	reg := registry.New()
	if err := reg.AddGraph("ba", g, nil); err != nil {
		t.Fatal(err)
	}
	s, err := NewMulti(reg, Config{CacheSize: 8, MaxConcurrent: 1, MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	closeServer(t, s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if resp, _ := getRank(t, ts.URL+"/v1/ba/topk?algo=hits&k=3&timeout=100ms"); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("hits miss: %d, want 504", resp.StatusCode)
	}
	timedOut := time.Now()
	for {
		sent := time.Now()
		resp, _ := getRank(t, ts.URL+"/v1/ba/topk?algo=pagerank&k=3")
		if resp.StatusCode != http.StatusTooManyRequests {
			if resp.StatusCode != 200 {
				t.Fatalf("pagerank miss: %d, want 200", resp.StatusCode)
			}
			t.Logf("the slot was free %v after the 504 (bound %v)", sent.Sub(timedOut), bound)
			break
		}
		if sent.Sub(timedOut) > bound {
			t.Fatalf("the HITS miss still held the slot %v after its 504", bound)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNaNSolveIsAnUncachedError: a finite p can still make the transition
// non-finite — at p = −1e308, −p·log Θ̂ overflows on every node of degree 7
// or more — and the solve then reports its NaN residual instead of
// returning NaN scores. The request gets a JSON 500, and since errors are
// not cached, its repeat is a miss again, not a hit on a NaN ranking.
func TestNaNSolveIsAnUncachedError(t *testing.T) {
	b := graph.NewBuilder(graph.Undirected)
	for leaf := int32(1); leaf <= 8; leaf++ {
		b.AddEdge(0, leaf).AddEdge(leaf, leaf%8+1)
	}
	reg := registry.New()
	if err := reg.AddGraph("hub", b.MustBuild(), nil); err != nil {
		t.Fatal(err)
	}
	s, err := NewMulti(reg, Config{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	closeServer(t, s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < 2; i++ {
		var body errorBody
		if code := getJSON(t, ts.URL+"/v1/hub/topk?k=3&p=-1e308", &body); code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500", i, code)
		}
		if !strings.Contains(body.Error, "NaN") {
			t.Errorf("request %d: error %q does not name the NaN residual", i, body.Error)
		}
	}
	var m MetricsResponse
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if m.Cache.Misses != 2 || m.Cache.Hits != 0 {
		t.Errorf("cache %+v after two failed solves, want 2 misses and no hit", m.Cache)
	}
}

// TestNonFiniteParamsRejected: NaN/Inf solver parameters are a 400 at the
// parse/validate step on both /rank and /ppr — they must never reach the
// caches or cost a solve.
func TestNonFiniteParamsRejected(t *testing.T) {
	_, ts := admServer(t, Config{CacheSize: 8})
	for _, url := range []string{
		"/v1/mem/rank?alpha=NaN",
		"/v1/mem/rank?alpha=Inf",
		"/v1/mem/rank?beta=NaN",
		"/v1/mem/rank?p=NaN",
		"/v1/mem/rank?p=-Inf",
		"/v1/mem/ppr?seed=0&eps=NaN",
		"/v1/mem/ppr?seed=0&alpha=Inf",
		"/v1/mem/ppr?seed=0&alpha=NaN",
	} {
		if code := getJSON(t, ts.URL+url, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, code)
		}
	}
	var m MetricsResponse
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if m.Cache.Misses != 0 || m.Cache.Hits != 0 {
		t.Errorf("rank cache touched by invalid specs: %+v", m.Cache)
	}
	if m.PPRCache.Misses != 0 || m.PPRCache.Hits != 0 {
		t.Errorf("ppr cache touched by invalid specs: %+v", m.PPRCache)
	}
}

// TestPPRShedsWhenSaturated: the /ppr route shares the same per-graph budget
// and sheds cold pushes with 429 + Retry-After (no stale tier there).
func TestPPRShedsWhenSaturated(t *testing.T) {
	s, ts := admServer(t, Config{CacheSize: 8, MaxConcurrent: 1, MaxQueue: -1})
	// Warm one seed.
	if code := getJSON(t, ts.URL+"/v1/mem/ppr?seed=0", nil); code != 200 {
		t.Fatalf("warm ppr: %d", code)
	}
	signal, release := blockSolves(t, s)
	defer release()
	go http.Get(ts.URL + "/v1/mem/ppr?seed=1") //nolint:errcheck // drained via release
	<-signal

	resp, err := http.Get(ts.URL + "/v1/mem/ppr?seed=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("saturated ppr: %d Retry-After=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// The warm seed still serves from cache.
	resp, err = http.Get(ts.URL + "/v1/mem/ppr?seed=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("X-PPR-Cache") != "hit" {
		t.Errorf("warm seed under saturation: %d %q", resp.StatusCode, resp.Header.Get("X-PPR-Cache"))
	}
}
