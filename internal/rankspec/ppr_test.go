package rankspec

import (
	"context"
	"math"
	"testing"

	"d2pr/internal/core"
)

func TestPPRValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*PPRSpec)
		ok   bool
	}{
		{"default", func(s *PPRSpec) {}, true},
		{"negative seed", func(s *PPRSpec) { s.Seed = -1 }, false},
		{"seed out of range", func(s *PPRSpec) { s.Seed = 6 }, false},
		{"seed at edge", func(s *PPRSpec) { s.Seed = 5 }, true},
		{"alpha zero", func(s *PPRSpec) { s.Alpha = 0 }, false},
		{"alpha one", func(s *PPRSpec) { s.Alpha = 1 }, false},
		{"eps zero", func(s *PPRSpec) { s.Epsilon = 0 }, false},
		{"eps too coarse", func(s *PPRSpec) { s.Epsilon = 0.5 }, false},
		{"alpha NaN", func(s *PPRSpec) { s.Alpha = math.NaN() }, false},
		{"alpha +Inf", func(s *PPRSpec) { s.Alpha = math.Inf(1) }, false},
		{"alpha -Inf", func(s *PPRSpec) { s.Alpha = math.Inf(-1) }, false},
		{"eps NaN", func(s *PPRSpec) { s.Epsilon = math.NaN() }, false},
		{"eps Inf", func(s *PPRSpec) { s.Epsilon = math.Inf(1) }, false},
		{"k zero", func(s *PPRSpec) { s.K = 0 }, false},
		{"k over cap", func(s *PPRSpec) { s.K = MaxPPRK + 1 }, false},
		{"k at cap", func(s *PPRSpec) { s.K = MaxPPRK }, true},
	} {
		spec := NewPPR("t", 0)
		tc.mut(&spec)
		err := spec.Validate(6)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// Deferred seed bound: numNodes < 0 skips only the upper bound.
	spec := NewPPR("t", 1<<20)
	if err := spec.Validate(-1); err != nil {
		t.Errorf("deferred bound check: %v", err)
	}
	spec.Seed = -1
	if err := spec.Validate(-1); err == nil {
		t.Error("negative seed must fail even with deferred bounds")
	}
}

func TestPPRCacheKeyDiscriminates(t *testing.T) {
	base := NewPPR("g", 3)
	variants := []PPRSpec{
		NewPPR("other", 3),
		NewPPR("g", 4),
		{Graph: "g", Seed: 3, Alpha: 0.5, Epsilon: base.Epsilon, K: base.K},
		{Graph: "g", Seed: 3, Alpha: base.Alpha, Epsilon: 1e-5, K: base.K},
		{Graph: "g", Seed: 3, Alpha: base.Alpha, Epsilon: base.Epsilon, K: 10},
	}
	seen := map[string]bool{string(base.CacheKey()): true}
	for _, v := range variants {
		k := string(v.CacheKey())
		if seen[k] {
			t.Errorf("spec %+v collides with an earlier key %q", v, k)
		}
		seen[k] = true
	}
	if base.CacheKey() != NewPPR("g", 3).CacheKey() {
		t.Error("identical specs must share a key")
	}
}

// TestPPRComputeMatchesSolver: the spec-level compute path (engine-cached
// transition, top-k truncation) must agree with a direct SolvePPR on the
// same graph.
func TestPPRComputeMatchesSolver(t *testing.T) {
	snap := testSnapshot(t)
	spec := NewPPR("t", 0)
	spec.K = 3
	rows, err := spec.Compute(context.Background(), snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	e := snap.Engine()
	res, err := e.SolvePPR(e.Connection(), 0, core.ForwardPushOptions{
		Alpha: spec.Alpha, Epsilon: spec.Epsilon,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for i, r := range rows {
		if d := math.Abs(res.Scores[r.Node] - r.Score); d > 1e-15 {
			t.Errorf("row %d: cached score %v, solver %v", i, r.Score, res.Scores[r.Node])
		}
		if r.Score > prev {
			t.Errorf("row %d: score %v out of rank order (prev %v)", i, r.Score, prev)
		}
		prev = r.Score
	}
	// The seed dominates its own personalized ranking at α=0.85.
	if rows[0].Node != 0 {
		t.Errorf("top node = %d, want the seed", rows[0].Node)
	}
}

func TestPPRComputeDropsZeroTail(t *testing.T) {
	snap := testSnapshot(t)
	spec := NewPPR("t", 5)
	spec.K = MaxPPRK // far beyond the 6-node graph
	rows, err := spec.Compute(context.Background(), snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) > snap.Graph.NumNodes() {
		t.Fatalf("got %d rows for a %d-node graph", len(rows), snap.Graph.NumNodes())
	}
	for _, r := range rows {
		if r.Score <= 0 {
			t.Errorf("node %d: zero/negative score %v kept in top-k", r.Node, r.Score)
		}
	}
}

func TestPPREntriesExpansion(t *testing.T) {
	snap := testSnapshot(t)
	spec := NewPPR("t", 0)
	spec.K = 4
	rows, err := spec.Compute(context.Background(), snap)
	if err != nil {
		t.Fatal(err)
	}
	full := PPREntries(snap.Graph, rows)
	if len(full) != len(rows) {
		t.Fatalf("%d entries from %d rows", len(full), len(rows))
	}
	for i, e := range full {
		if e.Rank != i+1 {
			t.Errorf("entry %d: rank %d", i, e.Rank)
		}
		if e.Node != rows[i].Node || e.Score != rows[i].Score {
			t.Errorf("entry %d: %+v does not match row %+v", i, e, rows[i])
		}
		if want := snap.Graph.Degree(e.Node); e.Degree != want {
			t.Errorf("entry %d: degree %d, want %d", i, e.Degree, want)
		}
	}
}
