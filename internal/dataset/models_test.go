package dataset

import (
	"math"
	"testing"

	"d2pr/internal/dataset/rng"
	"d2pr/internal/graph"
)

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(500, 3, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 500 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Every late node adds exactly k edges: m = C(k+1,2) + (n-k-1)k.
	wantEdges := 3*4/2 + (500-4)*3
	if g.NumEdges() != wantEdges {
		t.Errorf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	// Heavy tail: max degree far above mean.
	s := graph.ComputeStats(g)
	if float64(s.MaxDegree) < 4*s.AvgDegree {
		t.Errorf("BA max degree %d vs mean %.1f: no hub structure", s.MaxDegree, s.AvgDegree)
	}
	defer func() {
		if recover() == nil {
			t.Error("n ≤ k must panic")
		}
	}()
	BarabasiAlbert(3, 3, 1)
}

func TestChungLuExpectedDegrees(t *testing.T) {
	// Homogeneous weights w: expected degree ≈ w.
	n := 1000
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 10
	}
	g := ChungLu(weights, 5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := graph.ComputeStats(g)
	if math.Abs(s.AvgDegree-10) > 1 {
		t.Errorf("ChungLu avg degree = %v, want ≈10", s.AvgDegree)
	}
	// Degree must track weight: give the first 10 nodes weight 50.
	for i := 0; i < 10; i++ {
		weights[i] = 50
	}
	g = ChungLu(weights, 6)
	var hubAvg float64
	for i := 0; i < 10; i++ {
		hubAvg += float64(g.Degree(int32(i)))
	}
	hubAvg /= 10
	if hubAvg < 30 {
		t.Errorf("weight-50 nodes average degree %v, want ≈50", hubAvg)
	}
}

func TestChungLuEmptyAndZeroWeights(t *testing.T) {
	g := ChungLu(nil, 1)
	if g.NumNodes() != 0 {
		t.Error("nil weights must give empty graph")
	}
	g = ChungLu(make([]float64, 5), 1)
	if g.NumEdges() != 0 {
		t.Error("zero weights must give no edges")
	}
}

func TestModelsDeterminism(t *testing.T) {
	a := BarabasiAlbert(200, 2, 77)
	b := BarabasiAlbert(200, 2, 77)
	ea, eb := graph.SortedEdges(a), graph.SortedEdges(b)
	if len(ea) != len(eb) {
		t.Fatal("nondeterministic BA edge count")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("nondeterministic BA at edge %d", i)
		}
	}
	_ = rng.New(0) // keep the import for clarity of provenance
}
