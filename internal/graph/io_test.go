package graph

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// TestEdgeListRoundTripProperty: a write/read round trip keeps the node
// count, trailing isolated nodes included, and the edge multiset.
func TestEdgeListRoundTripProperty(t *testing.T) {
	f := func(seed int64, directed bool, weighted bool) bool {
		r := rand.New(rand.NewSource(seed))
		kind := Undirected
		if directed {
			kind = Directed
		}
		n := 2 + r.Intn(20)
		// Edges touch only the first n nodes, so up to three trailing nodes
		// are isolated and only the header records them.
		b := NewBuilder(kind).EnsureNodes(n + r.Intn(4)).AllowSelfLoops()
		if weighted {
			b.Weighted()
		}
		m := r.Intn(60)
		for i := 0; i < m; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			w := float64(1+r.Intn(9)) / 2
			b.AddWeightedEdge(u, v, w)
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return false
		}
		g2, err := ReadEdgeList(&buf, kind, weighted)
		if err != nil {
			return false
		}
		return g2.NumNodes() == g.NumNodes() && reflect.DeepEqual(SortedEdges(g), SortedEdges(g2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# comment\n\n0 1\n1 2\t3.5\n"
	g, err := ReadEdgeList(strings.NewReader(in), Undirected, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2", g.NumEdges())
	}
	if g.Weighted() {
		t.Error("unweighted read must ignore weight column")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct{ name, input string }{
		{"one-field", "5\n"},
		{"bad-src", "x 1\n"},
		{"bad-dst", "1 y\n"},
		{"missing-weight", "0 1\n"},
		{"bad-weight", "0 1 z\n"},
		{"bad-nodes-header", "# nodes=x\n0 1\n"},
		{"huge-nodes-header", "# nodes=2147483647\n0 1\n"},
		{"huge-edge-id", "16777215 0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			weighted := tc.name == "missing-weight" || tc.name == "bad-weight"
			if _, err := ReadEdgeList(strings.NewReader(tc.input), Directed, weighted); err == nil {
				t.Errorf("input %q: want error", tc.input)
			}
		})
	}
}

func TestScoresRoundTrip(t *testing.T) {
	scores := []float64{0.25, 1e-12, 3.5, 0, 42}
	var buf bytes.Buffer
	if err := WriteScores(&buf, scores); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScores(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(scores) {
		t.Fatalf("len = %d, want %d", len(got), len(scores))
	}
	for i := range scores {
		if math.Abs(got[i]-scores[i]) > 1e-15 {
			t.Errorf("scores[%d] = %v, want %v", i, got[i], scores[i])
		}
	}
}

func TestReadScoresSparse(t *testing.T) {
	got, err := ReadScores(strings.NewReader("3\t1.5\n0\t2\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 0, 0, 1.5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestReadScoresErrors(t *testing.T) {
	for _, in := range []string{"a b c\n", "-1 2\n", "0 x\n"} {
		if _, err := ReadScores(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: want error", in)
		}
	}
}

// TestReadScoresRejectsExtremeSparsity: one line naming a huge id must not
// densify into a multi-gigabyte vector, while legitimately sparse files
// (missing ids default to 0 — e.g. a significance file scoring a few nodes
// of a large graph) must keep loading.
func TestReadScoresRejectsExtremeSparsity(t *testing.T) {
	if _, err := ReadScores(strings.NewReader("99999999\t1\n")); err == nil {
		t.Error("extremely sparse scores must be rejected")
	}
	// MaxInt64 would overflow a naive maxID+1 bound check and panic in
	// make; it must be rejected like any other oversized id.
	if _, err := ReadScores(strings.NewReader("9223372036854775807\t1\n")); err == nil {
		t.Error("MaxInt64 id must be rejected")
	}
	// Sparse but plausibly real: one scored node near the end of a
	// million-node graph (the registry's length check needs maxID = n-1).
	if got, err := ReadScores(strings.NewReader("999999\t1\n")); err != nil {
		t.Errorf("million-node sparse scores rejected: %v", err)
	} else if len(got) != 1000000 {
		t.Errorf("len = %d, want 1000000", len(got))
	}
	if _, err := ReadScores(strings.NewReader("900\t1\n")); err != nil {
		t.Errorf("moderately sparse scores rejected: %v", err)
	}
}

// TestReadScoresFor: with a known graph size the bound is exact — any id
// in range loads (however sparse), any id at or past n is rejected before
// allocation.
func TestReadScoresFor(t *testing.T) {
	got, err := ReadScoresFor(strings.NewReader("99\t1\n"), 100)
	if err != nil || len(got) != 100 {
		t.Errorf("in-range sparse id: len=%d err=%v", len(got), err)
	}
	if _, err := ReadScoresFor(strings.NewReader("100\t1\n"), 100); err == nil {
		t.Error("id == n must be rejected")
	}
	if _, err := ReadScoresFor(strings.NewReader("9223372036854775807\t1\n"), 100); err == nil {
		t.Error("huge id must be rejected")
	}
}

func TestSortedEdgesUndirectedOnce(t *testing.T) {
	g := NewBuilder(Undirected).AddEdge(2, 0).AddEdge(0, 1).MustBuild()
	edges := SortedEdges(g)
	if len(edges) != 2 {
		t.Fatalf("edges = %v, want 2 entries", edges)
	}
	if edges[0].U != 0 || edges[0].V != 1 || edges[1].U != 0 || edges[1].V != 2 {
		t.Errorf("unexpected order: %v", edges)
	}
}
