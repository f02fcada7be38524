package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"d2pr/internal/dataset"
	"d2pr/internal/rankspec"
	"d2pr/internal/registry"
)

// hitServer serves one paper graph of 1,000+ nodes, loaded.
func hitServer(t *testing.T) (*Server, *registry.Snapshot) {
	t.Helper()
	reg := registry.New()
	if err := reg.AddDataset(dataset.IMDBActorActor, dataset.Config{Scale: 0.5, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	snap, err := reg.Get(dataset.IMDBActorActor)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewMulti(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	closeServer(t, s)
	return s, snap
}

// TestTopKHitBodyEqualsMiss: a warm /topk hit answers byte for byte what the
// miss that filled the cache answered, and both equal the bounded selection
// over the cached scores, for k inside the cached prefix and beyond it.
func TestTopKHitBodyEqualsMiss(t *testing.T) {
	s, snap := hitServer(t)
	h := s.Handler()
	for _, k := range []int{10, 150} {
		spec := rankspec.New(snap.Name)
		spec.P = 0.25 + float64(k) // a fresh key per k, so each k starts with a miss
		url := fmt.Sprintf("/v1/%s/topk?k=%d&p=%g", snap.Name, k, spec.P)
		var bodies [2][]byte
		for i, want := range []string{"miss", "hit"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != want {
				t.Fatalf("k=%d request %d: status %d, X-Cache %q, want 200 %q: %s", k, i, rec.Code, rec.Header().Get(cacheHeader), want, rec.Body)
			}
			bodies[i] = rec.Body.Bytes()
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("k=%d: hit body differs from miss body\nmiss %s\n hit %s", k, bodies[0], bodies[1])
		}
		scores, ok := s.Cache().Lookup(spec.CacheKeyFor(snap))
		if !ok {
			t.Fatalf("k=%d: scores not cached", k)
		}
		var want bytes.Buffer
		resp := RankResponse{Graph: snap.Name, Config: string(spec.CacheKey()), Top: rankspec.TopEntries(snap.Graph, scores, k)}
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bodies[1], want.Bytes()) {
			t.Fatalf("k=%d: hit body differs from TopEntries over the cached scores\n got %s\nwant %s", k, bodies[1], want.Bytes())
		}
	}
}

// maxHitAllocs bounds the objects a warm /topk hit allocates, middleware
// included.
const maxHitAllocs = 39

// TestTopKHitAllocations checks maxHitAllocs. sync.Pool drops Puts under
// -race, which inflates the count there.
func TestTopKHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, snap := hitServer(t)
	h := s.Handler()
	req := httptest.NewRequest("GET", "/v1/"+snap.Name+"/topk?k=10&p=0.25", nil)
	h.ServeHTTP(httptest.NewRecorder(), req) // the miss that fills the cache
	allocs := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != "hit" {
			t.Fatalf("status %d, X-Cache %q: %s", rec.Code, rec.Header().Get(cacheHeader), rec.Body)
		}
	})
	t.Logf("a /topk hit allocates %.1f objects", allocs)
	if allocs > maxHitAllocs {
		t.Errorf("want at most %d", maxHitAllocs)
	}
}
