package graph

import (
	"math"
	"reflect"
	"testing"
)

func TestComputeStatsStar(t *testing.T) {
	// Star: center 0 with 4 leaves.
	b := NewBuilder(Undirected)
	for v := int32(1); v <= 4; v++ {
		b.AddEdge(0, v)
	}
	g := b.MustBuild()
	s := ComputeStats(g)
	if s.Nodes != 5 || s.Edges != 4 {
		t.Fatalf("n=%d m=%d, want 5/4", s.Nodes, s.Edges)
	}
	if s.AvgDegree != 8.0/5 {
		t.Errorf("avg degree = %v, want 1.6", s.AvgDegree)
	}
	if s.MaxDegree != 4 || s.MinDegree != 1 {
		t.Errorf("min/max = %d/%d, want 1/4", s.MinDegree, s.MaxDegree)
	}
	// Degrees: [4 1 1 1 1]; mean 1.6; var = (4-1.6)² + 4(1-1.6)² over 5 = (5.76+1.44)/5.
	wantSD := math.Sqrt((5.76 + 4*0.36) / 5)
	if math.Abs(s.DegreeStdDev-wantSD) > 1e-12 {
		t.Errorf("degree sd = %v, want %v", s.DegreeStdDev, wantSD)
	}
	// Leaves see only the center (σ of {4} = 0); the center sees four
	// degree-1 leaves (σ = 0). Median of [0 0 0 0 0] = 0.
	if s.MedianNeighborDegStdDev != 0 {
		t.Errorf("median neighbor σ = %v, want 0", s.MedianNeighborDegStdDev)
	}
	if s.Dangling != 0 || s.SelfLoops != 0 {
		t.Errorf("dangling=%d loops=%d, want 0/0", s.Dangling, s.SelfLoops)
	}
}

func TestComputeStatsNeighborSpread(t *testing.T) {
	// Path 0-1-2-3: degrees [1 2 2 1].
	g := NewBuilder(Undirected).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).MustBuild()
	s := ComputeStats(g)
	// Neighbor degree lists: 0:{2}σ=0, 1:{1,2}σ=0.5, 2:{2,1}σ=0.5, 3:{2}σ=0.
	// Median of [0, 0, 0.5, 0.5] = 0.25.
	if math.Abs(s.MedianNeighborDegStdDev-0.25) > 1e-12 {
		t.Errorf("median neighbor σ = %v, want 0.25", s.MedianNeighborDegStdDev)
	}
}

func TestComputeStatsEmptyAndIsolated(t *testing.T) {
	s := ComputeStats(NewBuilder(Undirected).MustBuild())
	if s.Nodes != 0 || s.MinDegree != 0 {
		t.Errorf("empty stats = %+v", s)
	}
	s = ComputeStats(NewBuilder(Undirected).EnsureNodes(3).MustBuild())
	if s.Dangling != 3 || s.AvgDegree != 0 {
		t.Errorf("isolated stats = %+v", s)
	}
}

func TestComputeStatsSelfLoops(t *testing.T) {
	g := NewBuilder(Directed).AllowSelfLoops().AddEdge(0, 0).AddEdge(0, 1).MustBuild()
	s := ComputeStats(g)
	if s.SelfLoops != 1 {
		t.Errorf("self loops = %d, want 1", s.SelfLoops)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, tc := range cases {
		if got := Median(tc.in); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Median must not mutate its input.
	in := []float64{3, 1, 2}
	Median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Error("Median mutated its input")
	}
}

func TestTopBottomDegreeNodes(t *testing.T) {
	// Degrees: 0→3, 1→1, 2→2, 3→2, 4→0 (isolated).
	g := NewBuilder(Undirected).EnsureNodes(5).
		AddEdge(0, 1).AddEdge(0, 2).AddEdge(0, 3).AddEdge(2, 3).MustBuild()
	top := TopDegreeNodes(g, 2)
	if !reflect.DeepEqual(top, []int32{0, 2}) {
		t.Errorf("top = %v, want [0 2] (ties by id)", top)
	}
	bottom := BottomDegreeNodes(g, 2)
	if !reflect.DeepEqual(bottom, []int32{1, 2}) {
		t.Errorf("bottom = %v, want [1 2] (isolated excluded, ties by id)", bottom)
	}
	if got := TopDegreeNodes(g, 100); len(got) != 5 {
		t.Errorf("overlong k must clamp, got %d", len(got))
	}
}
