package main

import (
	"slices"
	"testing"

	"d2pr/internal/core"
	"d2pr/internal/dataset"
	"d2pr/internal/rankspec"
	"d2pr/internal/registry"
	"d2pr/internal/stats"
)

// served computes, with the program's own code, the answers the checks
// judge: a d2pr score vector and its top-k, a Spearman value, and a
// forward-push top-k.
type served struct {
	og     *oGraph
	sig    []float64
	scores []float64
	ref    []float64
	top    []row
	rho    float64
	ppr    []row
	pprRef []float64
}

func newServed(t *testing.T) *served {
	t.Helper()
	reg := registry.New()
	if err := reg.AddAllDatasets(dataset.Config{Scale: 0.05, Seed: paperSeed}); err != nil {
		t.Fatal(err)
	}
	snap, err := reg.Get(dataset.GraphNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	g := snap.Graph
	s := &served{og: copyGraph(g), sig: snap.Significance}
	tr, err := core.Blended(g, 1.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := snap.Engine().Solve(tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.scores = res.Scores
	for _, e := range rankspec.TopEntries(g, s.scores, 10) {
		s.top = append(s.top, row(e))
	}
	s.rho = stats.Spearman(s.scores, s.sig)
	if s.ref, err = s.og.rank(1.5, 0.5); err != nil {
		t.Fatal(err)
	}
	seed := giantComponent(g)[0]
	spec := rankspec.NewPPR(snap.Name, seed)
	spec.Epsilon, spec.K = 1e-4, 10
	rows, err := spec.Compute(t.Context(), snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rankspec.PPREntries(g, rows) {
		s.ppr = append(s.ppr, row(e))
	}
	if s.pprRef, err = s.og.ppr(seed); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChecksAcceptServedAnswers keeps the rejection tests honest: the
// unaltered answers pass every check.
func TestChecksAcceptServedAnswers(t *testing.T) {
	s := newServed(t)
	if err := checkVector(s.scores, s.ref, rankBound()); err != nil {
		t.Error(err)
	}
	if err := checkTop(s.og, s.top, s.ref, 10, false, symmetric(rankBound())); err != nil {
		t.Error(err)
	}
	if err := checkSpearman("spearman", &s.rho, spearman(s.ref, s.sig), s.og.n); err != nil {
		t.Error(err)
	}
	if err := checkTop(s.og, s.ppr, s.pprRef, 10, true, pushRange(s.og.pushBound(1e-4))); err != nil {
		t.Error(err)
	}
}

func TestCheckVectorRejectsPerturbedScores(t *testing.T) {
	s := newServed(t)
	bad := slices.Clone(s.scores)
	bad[0] += 1e-6
	bad[1] -= 1e-6 // keeps the sum at 1: only the oracle can tell
	if checkVector(bad, s.ref, rankBound()) == nil {
		t.Error("a vector 2e-6 away from the oracle in L1 passed")
	}
	bad = slices.Clone(s.scores)
	bad[0] += 1e-6
	if checkVector(bad, s.ref, rankBound()) == nil {
		t.Error("a vector summing to 1+1e-6 passed")
	}
}

func TestCheckTopRejectsSwappedRows(t *testing.T) {
	s := newServed(t)
	bad := slices.Clone(s.top)
	bad[2], bad[3] = bad[3], bad[2]
	bad[2].Rank, bad[3].Rank = 3, 4
	if checkTop(s.og, bad, s.ref, 10, false, symmetric(rankBound())) == nil {
		t.Error("top-k with rows 3 and 4 swapped passed")
	}
	// Swapping the nodes but keeping the scores in order is caught by the
	// oracle's score for each node.
	bad = slices.Clone(s.top)
	bad[2].Node, bad[3].Node = bad[3].Node, bad[2].Node
	bad[2].Degree, bad[3].Degree = bad[3].Degree, bad[2].Degree
	if checkTop(s.og, bad, s.ref, 10, false, symmetric(rankBound())) == nil {
		t.Error("top-k with the nodes of rows 3 and 4 swapped passed")
	}
}

func TestCheckTopRejectsOmittedNode(t *testing.T) {
	s := newServed(t)
	bad := slices.Clone(s.top[1:])
	for i := range bad {
		bad[i].Rank = i + 1
	}
	if checkTop(s.og, bad, s.ref, 9, false, symmetric(rankBound())) == nil {
		t.Error("top-9 without the best node passed")
	}
}

func TestCheckSpearmanRejectsOffByOneHundredth(t *testing.T) {
	s := newServed(t)
	bad := s.rho + 0.01
	if checkSpearman("spearman", &bad, spearman(s.ref, s.sig), s.og.n) == nil {
		t.Error("a Spearman value off by 0.01 passed")
	}
	if checkSpearman("spearman", nil, 0, s.og.n) == nil {
		t.Error("a missing Spearman value passed")
	}
}

func TestCheckPushRejectsRowAboveReference(t *testing.T) {
	s := newServed(t)
	bad := slices.Clone(s.ppr)
	bad[0].Score = s.pprRef[bad[0].Node] + 1e-6
	if checkTop(s.og, bad, s.pprRef, 10, true, pushRange(s.og.pushBound(1e-4))) == nil {
		t.Error("a push row 1e-6 above its reference passed")
	}
}

// TestSpearmanAveragesTies pins the oracle's tie convention on a small
// example: [10, 20, 20, 5] ranks as [3, 1.5, 1.5, 4].
func TestSpearmanAveragesTies(t *testing.T) {
	if got := avgRanks([]float64{10, 20, 20, 5}); !slices.Equal(got, []float64{3, 1.5, 1.5, 4}) {
		t.Fatalf("ranks %v", got)
	}
	if r := spearman([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}); r != 1 {
		t.Fatalf("ρ of a monotone pair = %v", r)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) → [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) → [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
}
