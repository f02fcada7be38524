package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList asserts that arbitrary text input never panics the parser
// and that accepted inputs produce structurally valid graphs that survive a
// write/read round trip.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n", true, false)
	f.Add("# comment\n3\t4\t2.5\n", false, true)
	f.Add("", true, false)
	f.Add("0 0\n", false, false)
	f.Add("9999999999 1\n", true, false)
	f.Add("1 2 NaN\n", false, true)
	f.Add("# nodes=2147483647\n0 1\n", true, false)
	f.Add("2147483646 0\n", false, false)
	f.Fuzz(func(t *testing.T, input string, directed, weighted bool) {
		kind := Undirected
		if directed {
			kind = Directed
		}
		g, err := ReadEdgeList(strings.NewReader(input), kind, weighted)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v (input %q)", err, input)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		g2, err := ReadEdgeList(&buf, kind, weighted)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() {
			t.Fatalf("round trip changed node count: %d → %d", g.NumNodes(), g2.NumNodes())
		}
		a, b := SortedEdges(g), SortedEdges(g2)
		if len(a) != len(b) {
			t.Fatalf("round trip changed edge count: %d → %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round trip changed edge %d: %v → %v", i, a[i], b[i])
			}
		}
	})
}

// FuzzReadScores asserts the significance parser never panics.
func FuzzReadScores(f *testing.F) {
	f.Add("0\t1.5\n1\t2\n")
	f.Add("")
	f.Add("# c\n5\t-3e8\n")
	f.Fuzz(func(t *testing.T, input string) {
		scores, err := ReadScores(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteScores(&buf, scores); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
	})
}
