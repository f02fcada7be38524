package rankspec

import (
	"context"
	"math"
	"testing"

	"d2pr/internal/graph"
	"d2pr/internal/registry"
)

func testSnapshot(t *testing.T) *registry.Snapshot {
	t.Helper()
	g, err := graph.FromEdges(graph.Undirected, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 4}, {4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &registry.Snapshot{Name: "t", Graph: g}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Spec)
		ok   bool
	}{
		{"default", func(s *Spec) {}, true},
		{"bad algo", func(s *Spec) { s.Algo = "bogus" }, false},
		{"alpha high", func(s *Spec) { s.Alpha = 1 }, false},
		{"alpha zero", func(s *Spec) { s.Alpha = 0 }, false},
		{"beta high", func(s *Spec) { s.Beta = 1.5 }, false},
		{"negative p ok", func(s *Spec) { s.P = -2 }, true},
		{"alpha NaN", func(s *Spec) { s.Alpha = math.NaN() }, false},
		{"alpha +Inf", func(s *Spec) { s.Alpha = math.Inf(1) }, false},
		{"alpha -Inf", func(s *Spec) { s.Alpha = math.Inf(-1) }, false},
		{"beta NaN", func(s *Spec) { s.Beta = math.NaN() }, false},
		{"beta Inf", func(s *Spec) { s.Beta = math.Inf(1) }, false},
		{"p NaN", func(s *Spec) { s.P = math.NaN() }, false},
		{"p Inf", func(s *Spec) { s.P = math.Inf(1) }, false},
		{"p -Inf", func(s *Spec) { s.P = math.Inf(-1) }, false},
		{"seed out of range", func(s *Spec) { s.Seeds = []int32{6} }, false},
		{"seed in range", func(s *Spec) { s.Seeds = []int32{5} }, true},
	} {
		spec := New("t")
		tc.mut(&spec)
		err := spec.Validate(6)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// Deferred seed bounds: numNodes < 0 skips the upper bound only.
	spec := New("t")
	spec.Seeds = []int32{9999}
	if err := spec.Validate(-1); err != nil {
		t.Errorf("deferred bounds: %v", err)
	}
	spec.Seeds = []int32{-1}
	if err := spec.Validate(-1); err == nil {
		t.Error("negative seed must fail even with deferred bounds")
	}
}

// TestCacheKeyCanonicalization: algorithms that ignore parameters must map
// equivalent specs to one key, and distinct configurations must not collide.
func TestCacheKeyCanonicalization(t *testing.T) {
	base := New("t")
	if a, b := base, base; a.CacheKey() != b.CacheKey() {
		t.Error("identical specs produce different keys")
	}
	pr1, pr2 := New("t"), New("t")
	pr1.Algo, pr2.Algo = AlgoPageRank, AlgoPageRank
	pr1.P, pr2.P = 1, 2
	if pr1.CacheKey() != pr2.CacheKey() {
		t.Error("pagerank must ignore p")
	}
	h1, h2 := New("t"), New("t")
	h1.Algo, h2.Algo = AlgoHITS, AlgoHITS
	h1.Alpha, h1.Seeds = 0.5, []int32{1}
	if h1.CacheKey() != h2.CacheKey() {
		t.Error("hits must ignore alpha and seeds")
	}
	d1, d2 := New("t"), New("t")
	d1.Algo, d2.Algo = AlgoDegree, AlgoDegree
	d1.P, d1.Alpha = 3, 0.2
	if d1.CacheKey() != d2.CacheKey() {
		t.Error("degree must ignore every solver option")
	}
	v1, v2 := New("t"), New("t")
	v2.P = 0.5
	if v1.CacheKey() == v2.CacheKey() {
		t.Error("d2pr p must be part of the key")
	}
	g1, g2 := New("a"), New("b")
	if g1.CacheKey() == g2.CacheKey() {
		t.Error("graph name must be part of the key")
	}
	for name, vary := range map[string]func(*Spec){
		"algo":  func(s *Spec) { s.Algo = AlgoPageRank },
		"beta":  func(s *Spec) { s.Beta = 0.5 },
		"alpha": func(s *Spec) { s.Alpha = 0.9 },
	} {
		s := New("t")
		vary(&s)
		if s.CacheKey() == base.CacheKey() {
			t.Errorf("d2pr %s must be part of the key", name)
		}
	}
	s1, s2 := New("t"), New("t")
	s1.Seeds = []int32{3}
	if s1.CacheKey() == s2.CacheKey() {
		t.Error("seeds must be part of the key")
	}
}

// TestCacheKeyD2PRBetaOneIgnoresP: at β = 1 the d2pr transition is pure
// connection strength and p plays no part, so every p shares one key (a
// p × β grid solves one β = 1 transition per graph, not one per p), while
// p stays in the key for every β < 1. The shared key is sound only if the
// scores really do not depend on p; a weighted graph makes connection
// strength differ from the uniform walk.
func TestCacheKeyD2PRBetaOneIgnoresP(t *testing.T) {
	spec := func(p, beta float64) Spec {
		s := New("t")
		s.P, s.Beta = p, beta
		return s
	}
	canon := spec(0, 1).CacheKey()
	for _, p := range []float64{-4, -0.5, 0.5, 4} {
		if got := spec(p, 1).CacheKey(); got != canon {
			t.Errorf("p=%g β=1: key %q, want the p=0 key %q", p, got, canon)
		}
		for _, beta := range []float64{0, 0.5, 0.999} {
			if spec(p, beta).CacheKey() == spec(0, beta).CacheKey() {
				t.Errorf("p=%g β=%g: key must keep p", p, beta)
			}
		}
	}

	g, err := graph.FromWeighted(graph.Undirected, []graph.WeightedEdge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 4}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := &registry.Snapshot{Name: "t", Graph: g}
	want, err := spec(0, 1).Compute(context.Background(), snap)
	if err != nil {
		t.Fatal(err)
	}
	// pagerank's key drops p and β too, so its scores must not read them.
	pagerank := func(p, beta float64) Spec {
		s := spec(p, beta)
		s.Algo = AlgoPageRank
		return s
	}
	for _, s := range []Spec{spec(-4, 1), spec(4, 1), pagerank(-4, 0), pagerank(4, 0.5)} {
		got, err := s.Compute(context.Background(), snap)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s p=%g β=%g: score[%d] = %v, d2pr at p=0 β=1 gives %v", s.Algo, s.P, s.Beta, i, got[i], want[i])
			}
		}
	}
}

func TestComputeAllAlgos(t *testing.T) {
	snap := testSnapshot(t)
	for _, algo := range Algos() {
		spec := New("t")
		spec.Algo = algo
		scores, err := spec.Compute(context.Background(), snap)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(scores) != snap.Graph.NumNodes() {
			t.Fatalf("%s: %d scores for %d nodes", algo, len(scores), snap.Graph.NumNodes())
		}
	}
	bad := New("t")
	bad.Algo = "bogus"
	if _, err := bad.Compute(context.Background(), snap); err == nil {
		t.Error("unknown algo must error")
	}
}

func TestTopEntries(t *testing.T) {
	snap := testSnapshot(t)
	spec := New("t")
	scores, err := spec.Compute(context.Background(), snap)
	if err != nil {
		t.Fatal(err)
	}
	top := TopEntries(snap.Graph, scores, 3)
	if len(top) != 3 {
		t.Fatalf("top = %d rows", len(top))
	}
	for i, e := range top {
		if e.Rank != i+1 {
			t.Errorf("row %d rank = %d", i, e.Rank)
		}
		if i > 0 && e.Score > top[i-1].Score {
			t.Errorf("rows not descending: %+v", top)
		}
		if e.Degree != snap.Graph.Degree(e.Node) {
			t.Errorf("row %d degree mismatch", i)
		}
	}
	// k beyond n clamps to n.
	if all := TopEntries(snap.Graph, scores, 99); len(all) != snap.Graph.NumNodes() {
		t.Errorf("k>n: %d rows", len(all))
	}
}
