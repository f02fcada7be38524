package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomDirected builds a random directed weighted graph from fuzz input.
func randomDirected(r *rand.Rand, n, m int) *Graph {
	b := NewBuilder(Directed).Weighted().EnsureNodes(n).AllowSelfLoops()
	for i := 0; i < m; i++ {
		b.AddWeightedEdge(int32(r.Intn(n)), int32(r.Intn(n)), 1+r.Float64()*9)
	}
	return b.MustBuild()
}

func TestTransposeInvolution(t *testing.T) {
	// Property: transpose(transpose(g)) has exactly g's edge multiset.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDirected(r, 2+r.Intn(30), r.Intn(120))
		tt := Transpose(Transpose(g))
		return reflect.DeepEqual(SortedEdges(g), SortedEdges(tt))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
}

func TestTransposeReversesArcs(t *testing.T) {
	g := NewBuilder(Directed).Weighted().
		AddWeightedEdge(0, 1, 2).AddWeightedEdge(1, 2, 3).MustBuild()
	tr := Transpose(g)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.HasEdge(1, 0) || !tr.HasEdge(2, 1) {
		t.Error("arcs not reversed")
	}
	if w, _ := tr.EdgeWeight(2, 1); w != 3 {
		t.Errorf("weight not carried: %v", w)
	}
	if tr.HasEdge(0, 1) {
		t.Error("original arc survived transpose")
	}
}

func TestTransposeDegreeConservation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := randomDirected(r, 40, 300)
	tr := Transpose(g)
	in := g.InDegrees()
	for u := 0; u < g.NumNodes(); u++ {
		if tr.Degree(int32(u)) != in[u] {
			t.Fatalf("node %d: transpose out-degree %d != in-degree %d", u, tr.Degree(int32(u)), in[u])
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewBuilder(Undirected).EnsureNodes(7).
		AddEdge(0, 1).AddEdge(1, 2).
		AddEdge(3, 4).MustBuild() // 5, 6 isolated
	comp, n := ConnectedComponents(g)
	if n != 4 {
		t.Fatalf("components = %d, want 4", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("nodes 0..2 must share a component")
	}
	if comp[3] != comp[4] {
		t.Error("nodes 3,4 must share a component")
	}
	if comp[5] == comp[6] {
		t.Error("isolated nodes must be distinct components")
	}
}

func TestConnectedComponentsDirectedWeak(t *testing.T) {
	// 0→1←2: weakly connected even though not strongly.
	g := NewBuilder(Directed).AddEdge(0, 1).AddEdge(2, 1).MustBuild()
	_, n := ConnectedComponents(g)
	if n != 1 {
		t.Errorf("weak components = %d, want 1", n)
	}
}

func TestProjectBipartite(t *testing.T) {
	// Containers: {0,1,2}, {1,2}, {3}. Entity pairs: (0,1),(0,2),(1,2)x2.
	g, err := ProjectBipartite(5, [][]int32{{0, 1, 2}, {1, 2}, {3}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 {
		t.Fatalf("nodes = %d, want 5", g.NumNodes())
	}
	if w, _ := g.EdgeWeight(1, 2); w != 2 {
		t.Errorf("weight(1,2) = %v, want 2 shared containers", w)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 1 {
		t.Errorf("weight(0,1) = %v, want 1", w)
	}
	if g.Degree(3) != 0 || g.Degree(4) != 0 {
		t.Error("singleton-container and absent entities must be isolated")
	}
}

func TestProjectBipartiteCap(t *testing.T) {
	big := []int32{0, 1, 2, 3, 4}
	g, err := ProjectBipartite(5, [][]int32{big, {0, 1}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The size-5 container is skipped by the cap; only (0,1) remains.
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1 (capped)", g.NumEdges())
	}
}

func TestStripWeights(t *testing.T) {
	g := NewBuilder(Undirected).Weighted().AddWeightedEdge(0, 1, 5).MustBuild()
	u := StripWeights(g)
	if u.Weighted() {
		t.Fatal("stripped graph still weighted")
	}
	if u.NumEdges() != g.NumEdges() || u.NumNodes() != g.NumNodes() {
		t.Error("structure changed")
	}
	if u.ArcWeight(0) != 1 {
		t.Errorf("unweighted arc weight = %v, want 1", u.ArcWeight(0))
	}
	// Idempotent on unweighted graphs.
	if StripWeights(u) != u {
		t.Error("StripWeights on unweighted graph must be identity")
	}
}

func TestCommonNeighborWeights(t *testing.T) {
	// Triangle + pendant: edge (0,1) shares neighbor 2 → weight 2;
	// edge (2,3) shares none → weight 1.
	g := NewBuilder(Undirected).
		AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 2).AddEdge(2, 3).MustBuild()
	w := CommonNeighborWeights(g)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := w.EdgeWeight(0, 1); got != 2 {
		t.Errorf("weight(0,1) = %v, want 2 (one shared neighbor + 1)", got)
	}
	if got, _ := w.EdgeWeight(2, 3); got != 1 {
		t.Errorf("weight(2,3) = %v, want 1", got)
	}
	// Symmetry of the derived weights.
	a, _ := w.EdgeWeight(1, 0)
	b, _ := w.EdgeWeight(0, 1)
	if a != b {
		t.Errorf("asymmetric weights %v vs %v", a, b)
	}
}
