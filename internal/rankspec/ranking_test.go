package rankspec

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"d2pr/internal/dataset"
	"d2pr/internal/registry"
)

// TestRankingTopMatchesTopEntries pins the cache-hit contract: rows read off
// a Ranking's prefix equal the bounded selection's row for row, for every k
// on both sides of PrefixLen. The degree ranking has large tie groups, where
// only the ascending-id tie order decides the rows, and the six-node graph
// has fewer nodes than the prefix holds.
func TestRankingTopMatchesTopEntries(t *testing.T) {
	reg := registry.New()
	if err := reg.AddDataset(dataset.IMDBActorActor, dataset.Config{Scale: 1, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	paper, err := reg.Get(dataset.IMDBActorActor)
	if err != nil {
		t.Fatal(err)
	}
	d2pr := New(paper.Name)
	d2pr.P = 0.5
	degree := New(paper.Name)
	degree.Algo = AlgoDegree
	small := testSnapshot(t)
	for _, c := range []struct {
		name string
		snap *registry.Snapshot
		spec Spec
	}{
		{"paper d2pr", paper, d2pr},
		{"paper degree", paper, degree},
		{"six nodes", small, New(small.Name)},
	} {
		r, _, err := c.spec.compute(context.Background(), c.snap)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g := c.snap.Graph
		if want := min(g.NumNodes(), PrefixLen); len(r.Best) != want {
			t.Fatalf("%s: prefix holds %d ids, want %d", c.name, len(r.Best), want)
		}
		for k := 1; k <= PrefixLen+5; k++ {
			got, want := r.Top(g, k), TopEntries(g, r.Scores, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d: prefix rows differ from TopEntries\n got %v\nwant %v", c.name, k, got, want)
			}
		}
	}
}

// TestCacheKeyGolden pins every cache-key builder to the strings the fmt
// builders they replaced produced, so no cache identity and no wire-visible
// config string changes.
func TestCacheKeyGolden(t *testing.T) {
	want := map[string]string{
		"spec p=-0":                                "g|d2pr|p=-0|beta=0|alpha=0.85|tol=1e-10|maxiter=500",
		"spec p=1e-07":                             "g|d2pr|p=1e-07|beta=0|alpha=0.85|tol=1e-10|maxiter=500",
		"spec p=1e+21":                             "g|d2pr|p=1e+21|beta=0|alpha=0.85|tol=1e-10|maxiter=500",
		"spec p=0.30000000000000004":               "g|d2pr|p=0.30000000000000004|beta=0|alpha=0.85|tol=1e-10|maxiter=500",
		"spec p=-3.4999999999999996":               "g|d2pr|p=-3.4999999999999996|beta=0|alpha=0.85|tol=1e-10|maxiter=500",
		"spec beta=0.5 alpha=0.9":                  "imdb-actor-actor|d2pr|p=1|beta=0.5|alpha=0.9|tol=1e-10|maxiter=500",
		"spec beta=1":                              "imdb-actor-actor|d2pr|p=0|beta=1|alpha=0.9|tol=1e-10|maxiter=500",
		"spec seeds":                               "imdb-actor-actor|d2pr|p=0|beta=1|alpha=0.9|tol=1e-10|maxiter=500|seeds=3,17",
		"spec algo=pagerank":                       "g|pagerank|p=0|beta=0|alpha=0.85|tol=1e-10|maxiter=500",
		"spec algo=hits":                           "g|hits|p=0|beta=0|alpha=0.85|tol=1e-10|maxiter=500",
		"spec algo=degree":                         "g|degree|p=0|beta=0|",
		"spec epoch 1":                             "g|d2pr|p=0|beta=0|alpha=0.85|tol=1e-10|maxiter=500|epoch=1",
		"spec epoch 12345":                         "g|d2pr|p=0|beta=0|alpha=0.85|tol=1e-10|maxiter=500|epoch=12345",
		"ppr default":                              "g|ppr|seed=42|a=0.85|e=1e-07|k=100",
		"ppr custom":                               "g|ppr|seed=123456|a=0.30000000000000004|e=1e-05|k=10",
		"ppr epoch 12345":                          "g|ppr|seed=123456|a=0.30000000000000004|e=1e-05|k=10|epoch=12345",
		"spec beta=0.25 p=-0":                      "g|d2pr|p=-0|beta=0.25|alpha=0.85|tol=1e-10|maxiter=500",
		"spec beta=0.25 p=1e-07":                   "g|d2pr|p=1e-07|beta=0.25|alpha=0.85|tol=1e-10|maxiter=500",
		"spec beta=0.25 p=1e+21":                   "g|d2pr|p=1e+21|beta=0.25|alpha=0.85|tol=1e-10|maxiter=500",
		"spec beta=0.25 p=0.30000000000000004":     "g|d2pr|p=0.30000000000000004|beta=0.25|alpha=0.85|tol=1e-10|maxiter=500",
		"spec beta=0.25 p=-3.4999999999999996":     "g|d2pr|p=-3.4999999999999996|beta=0.25|alpha=0.85|tol=1e-10|maxiter=500",
		"spec beta=0.25 p=NaN":                     "g|d2pr|p=NaN|beta=0.25|alpha=0.85|tol=1e-10|maxiter=500",
		"spec beta=0.25 p=+Inf":                    "g|d2pr|p=+Inf|beta=0.25|alpha=0.85|tol=1e-10|maxiter=500",
		"spec beta=0.25 p=-Inf":                    "g|d2pr|p=-Inf|beta=0.25|alpha=0.85|tol=1e-10|maxiter=500",
		"spec beta=0.25 p=5e-324":                  "g|d2pr|p=5e-324|beta=0.25|alpha=0.85|tol=1e-10|maxiter=500",
		"spec beta=0.25 p=1.7976931348623157e+308": "g|d2pr|p=1.7976931348623157e+308|beta=0.25|alpha=0.85|tol=1e-10|maxiter=500",
		"spec beta=0.25 p=1.23456789e+08":          "g|d2pr|p=1.23456789e+08|beta=0.25|alpha=0.85|tol=1e-10|maxiter=500",
		"spec beta=0.25 p=1e-05":                   "g|d2pr|p=1e-05|beta=0.25|alpha=0.85|tol=1e-10|maxiter=500",
		"spec beta=0.25 p=1e+20":                   "g|d2pr|p=1e+20|beta=0.25|alpha=0.85|tol=1e-10|maxiter=500",
	}
	cases := goldenKeyCases()
	if len(cases) != len(want) {
		t.Fatalf("%d cases, %d golden keys", len(cases), len(want))
	}
	for _, c := range cases {
		if w, ok := want[c[0]]; !ok || c[1] != w {
			t.Errorf("%s: key %q, want %q", c[0], c[1], w)
		}
	}
}

// goldenKeyCases lists every key builder's output over values whose
// formatting is easy to get wrong: negative zero, tiny and huge magnitudes,
// sums that are not short decimals and non-finite values.
func goldenKeyCases() [][2]string {
	var out [][2]string
	add := func(name string, key string) { out = append(out, [2]string{name, key}) }
	tenth, fifth := 0.1, 0.2
	sum := tenth + fifth // 0.30000000000000004, unlike the constant 0.1 + 0.2
	specPs := []float64{math.Copysign(0, -1), 1e-7, 1e21, sum, -3.4999999999999996}
	for _, p := range specPs {
		s := New("g")
		s.P = p
		add(fmt.Sprintf("spec p=%v", p), string(s.CacheKey()))
	}
	s := New("imdb-actor-actor")
	s.P, s.Beta, s.Alpha = 1, 0.5, 0.9
	add("spec beta=0.5 alpha=0.9", string(s.CacheKey()))
	s.Beta = 1
	add("spec beta=1", string(s.CacheKey()))
	s.Seeds = []int32{3, 17}
	add("spec seeds", string(s.CacheKey()))
	for _, algo := range []string{AlgoPageRank, AlgoHITS, AlgoDegree} {
		s := New("g")
		s.Algo, s.P, s.Beta = algo, 2, 0.5
		add("spec algo="+algo, string(s.CacheKey()))
	}
	snapA, snapB := &registry.Snapshot{Epoch: 1}, &registry.Snapshot{Epoch: 12345}
	add("spec epoch 1", string(New("g").CacheKeyFor(snapA)))
	add("spec epoch 12345", string(New("g").CacheKeyFor(snapB)))
	ppr := NewPPR("g", 42)
	add("ppr default", string(ppr.CacheKey()))
	ppr.Seed, ppr.Alpha, ppr.Epsilon, ppr.K = 123456, sum, 1e-5, 10
	add("ppr custom", string(ppr.CacheKey()))
	add("ppr epoch 12345", string(ppr.CacheKeyFor(snapB)))

	for _, p := range append(specPs, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64, 123456789, 1e-5, 1e20) {
		s := New("g")
		s.P, s.Beta = p, 0.25
		add(fmt.Sprintf("spec beta=0.25 p=%v", p), string(s.CacheKey()))
	}
	return out
}
