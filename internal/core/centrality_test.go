package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"d2pr/internal/graph"
	"d2pr/internal/stats"
)

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(graph.Undirected)
	for i := int32(0); i < int32(n-1); i++ {
		b.AddEdge(i, i+1)
	}
	return b.MustBuild()
}

func starGraph(k int) *graph.Graph {
	b := graph.NewBuilder(graph.Undirected)
	for v := int32(1); v <= int32(k); v++ {
		b.AddEdge(0, v)
	}
	return b.MustBuild()
}

func TestDegreeCentrality(t *testing.T) {
	g := starGraph(4)
	c := DegreeCentrality(g)
	if c[0] != 1 {
		t.Errorf("center = %v, want 1 (degree 4 / (n-1)=4)", c[0])
	}
	for v := 1; v <= 4; v++ {
		if c[v] != 0.25 {
			t.Errorf("leaf %d = %v, want 0.25", v, c[v])
		}
	}
	if got := DegreeCentrality(graph.NewBuilder(graph.Undirected).EnsureNodes(1).MustBuild()); got[0] != 0 {
		t.Errorf("singleton centrality = %v, want 0", got)
	}
}

func TestBetweennessPath(t *testing.T) {
	// Path 0-1-2-3-4: betweenness of node i (undirected, endpoints
	// excluded) is the number of pairs it separates: [0, 3, 4, 3, 0].
	g := pathGraph(5)
	bc := Betweenness(g)
	want := []float64{0, 3, 4, 3, 0}
	for i := range want {
		if math.Abs(bc[i]-want[i]) > 1e-9 {
			t.Errorf("bc[%d] = %v, want %v (all: %v)", i, bc[i], want[i], bc)
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	// Star with k leaves: center lies on all C(k,2) leaf pairs.
	g := starGraph(5)
	bc := Betweenness(g)
	if math.Abs(bc[0]-10) > 1e-9 {
		t.Errorf("center betweenness = %v, want C(5,2)=10", bc[0])
	}
	for v := 1; v <= 5; v++ {
		if bc[v] != 0 {
			t.Errorf("leaf %d betweenness = %v, want 0", v, bc[v])
		}
	}
}

func TestBetweennessSampledApproximates(t *testing.T) {
	g := pathGraph(40)
	exact := Betweenness(g)
	approx := BetweennessSampled(g, 20, 3)
	// Rank agreement is what the sampled estimator is used for.
	if rho := stats.Spearman(exact, approx); rho < 0.9 {
		t.Errorf("sampled betweenness rank correlation = %v, want ≥ 0.9", rho)
	}
	// samples ≥ n must fall back to exact.
	full := BetweennessSampled(g, 1000, 3)
	for i := range exact {
		if math.Abs(full[i]-exact[i]) > 1e-9 {
			t.Fatal("samples ≥ n must be exact")
		}
	}
}

func TestClosenessStar(t *testing.T) {
	// Harmonic closeness, star k=4: center: 4 neighbors at distance 1 →
	// 4/(n-1) = 1. Leaf: 1 + 3·(1/2) = 2.5 → /4 = 0.625.
	g := starGraph(4)
	c := ClosenessCentrality(g, 0, 1)
	if math.Abs(c[0]-1) > 1e-9 {
		t.Errorf("center closeness = %v, want 1", c[0])
	}
	for v := 1; v <= 4; v++ {
		if math.Abs(c[v]-0.625) > 1e-9 {
			t.Errorf("leaf closeness = %v, want 0.625", c[v])
		}
	}
}

func TestClosenessDisconnected(t *testing.T) {
	// Two components; unreachable pairs contribute zero, no division by
	// zero or infinities.
	g := graph.NewBuilder(graph.Undirected).EnsureNodes(4).AddEdge(0, 1).MustBuild()
	c := ClosenessCentrality(g, 0, 1)
	for i, v := range c {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("closeness[%d] = %v", i, v)
		}
	}
	if c[3] != 0 {
		t.Errorf("isolated node closeness = %v, want 0", c[3])
	}
}

func TestClosenessSampledApproximates(t *testing.T) {
	// A graph with real closeness spread (paths are the worst case for
	// pivot sampling, with massive near-ties).
	g := skewedGraph(200, 17)
	exact := ClosenessCentrality(g, 0, 1)
	approx := ClosenessCentrality(g, 80, 7)
	if rho := stats.Spearman(exact, approx); rho < 0.85 {
		t.Errorf("sampled closeness rank correlation = %v, want ≥ 0.85", rho)
	}
}

func TestHITSStar(t *testing.T) {
	// Directed star: leaves point at the center. Leaves are the hubs, the
	// center is the sole authority.
	b := graph.NewBuilder(graph.Directed)
	for v := int32(1); v <= 4; v++ {
		b.AddEdge(v, 0)
	}
	g := b.MustBuild()
	h, err := HITS(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Converged {
		t.Fatal("HITS did not converge")
	}
	if math.Abs(h.Authorities[0]-1) > 1e-6 {
		t.Errorf("center authority = %v, want 1", h.Authorities[0])
	}
	for v := 1; v <= 4; v++ {
		if math.Abs(h.Hubs[v]-0.25) > 1e-6 {
			t.Errorf("leaf hub = %v, want 0.25", h.Hubs[v])
		}
		if h.Authorities[v] > 1e-9 {
			t.Errorf("leaf authority = %v, want 0", h.Authorities[v])
		}
	}
}

func TestHITSUndirectedMatchesEigenvector(t *testing.T) {
	g := skewedGraph(120, 13)
	h, err := HITS(context.Background(), g, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EigenvectorCentrality(g, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if rho := stats.Spearman(h.Authorities, ev); rho < 0.999 {
		t.Errorf("HITS authorities vs eigenvector centrality ρ = %v, want ≈1", rho)
	}
}

func TestHITSEmpty(t *testing.T) {
	if _, err := HITS(context.Background(), graph.NewBuilder(graph.Directed).MustBuild(), Options{}); err != ErrEmptyGraph {
		t.Errorf("err = %v, want ErrEmptyGraph", err)
	}
}

func TestCentralityByName(t *testing.T) {
	g := starGraph(3)
	for _, name := range []string{"degree", "closeness", "betweenness", "eigenvector", "hits", "pagerank"} {
		scores, err := CentralityByName(g, name, Options{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(scores) != g.NumNodes() {
			t.Errorf("%s: %d scores for %d nodes", name, len(scores), g.NumNodes())
		}
		// On a star, every sensible centrality puts the center first.
		if best := stats.TopK(scores, 1)[0]; best != 0 {
			t.Errorf("%s: top node = %d, want center 0", name, best)
		}
	}
	if _, err := CentralityByName(g, "nope", Options{}); err == nil {
		t.Error("unknown centrality must error")
	}
}

// TestHITSCancelsWithinOneRound: HITS polls ctx at the top of every round, so
// an Err() that flips on poll k aborts it with exactly k-1 completed rounds
// and the context's error, as the power-iteration solves do.
func TestHITSCancelsWithinOneRound(t *testing.T) {
	g := powerLawGraph(t, 500, 5, 7)
	for _, flipAt := range []int64{1, 4} {
		res, err := HITS(errAfter(flipAt), g, Options{MaxIter: 50, Tol: 1e-300})
		requireCancelErr(t, err, fmt.Sprintf("after %d/50 iterations", flipAt-1))
		if res != nil {
			t.Fatalf("flip=%d: cancelled HITS returned a result", flipAt)
		}
	}
}
