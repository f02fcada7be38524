package core

import (
	"math"
	"testing"

	"d2pr/internal/graph"
	"d2pr/internal/stats"
)

func TestForwardPushMatchesPowerIteration(t *testing.T) {
	g := skewedGraph(300, 21)
	tr := Uniform(g)
	const seed = int32(7)
	exact, err := solveFresh(tr, Options{Alpha: 0.85, Tol: 1e-13, Teleport: seedVector(g.NumNodes(), seed)})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := NewEngine(g).SolvePPR(tr, seed, ForwardPushOptions{Alpha: 0.85, Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for i := range exact.Scores {
		if d := math.Abs(exact.Scores[i] - approx.Scores[i]); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 1e-5 {
		t.Errorf("max |exact - push| = %v, want ≤ 1e-5", maxErr)
	}
	if rho := stats.Spearman(exact.Scores, approx.Scores); rho < 0.999 {
		t.Errorf("rank agreement ρ = %v", rho)
	}
}

func TestForwardPushD2PRTransition(t *testing.T) {
	// Push must work for arbitrary transitions, including degree-decoupled
	// ones — the locality-sensitive D2PR use case.
	g := skewedGraph(200, 22)
	tr := DegreeDecoupled(g, 1.5)
	const seed = int32(3)
	exact, err := solveFresh(tr, Options{Alpha: 0.85, Tol: 1e-13, Teleport: seedVector(g.NumNodes(), seed)})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := NewEngine(g).SolvePPR(tr, seed, ForwardPushOptions{Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact.Scores {
		if math.Abs(exact.Scores[i]-approx.Scores[i]) > 1e-5 {
			t.Fatalf("node %d: exact %v push %v", i, exact.Scores[i], approx.Scores[i])
		}
	}
}

func TestForwardPushMassBound(t *testing.T) {
	g := skewedGraph(100, 23)
	tr := Uniform(g)
	approx, err := NewEngine(g).SolvePPR(tr, 0, ForwardPushOptions{Epsilon: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range approx.Scores {
		if v < 0 {
			t.Fatalf("negative push estimate %v", v)
		}
		sum += v
	}
	if sum > 1+1e-9 {
		t.Errorf("push mass = %v, must be ≤ 1", sum)
	}
	if sum < 0.5 {
		t.Errorf("push mass = %v, suspiciously small at ε=1e-4", sum)
	}
	if d := math.Abs(sum + approx.ResidualMass - 1); d > 1e-12 {
		t.Errorf("push mass %v + ResidualMass %v misses 1 by %v", sum, approx.ResidualMass, d)
	}
}

func TestForwardPushDanglingSeed(t *testing.T) {
	// Seed with no out-arcs: its mass keeps returning to itself through the
	// dangling rule; the estimate must converge with the seed dominant.
	g, err := graph.FromEdges(graph.Directed, [][2]int32{{1, 0}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := NewEngine(g).SolvePPR(Uniform(g), 0, ForwardPushOptions{Epsilon: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if approx.Scores[0] < 0.99 {
		t.Errorf("dangling seed score = %v, want ≈1", approx.Scores[0])
	}
}

func TestForwardPushValidation(t *testing.T) {
	g := skewedGraph(10, 24)
	tr := Uniform(g)
	e := NewEngine(g)
	if _, err := e.SolvePPR(tr, -1, ForwardPushOptions{}); err == nil {
		t.Error("negative seed must error")
	}
	if _, err := e.SolvePPR(tr, 100, ForwardPushOptions{}); err == nil {
		t.Error("out-of-range seed must error")
	}
	if _, err := e.SolvePPR(tr, 0, ForwardPushOptions{Alpha: 1.5}); err == nil {
		t.Error("alpha ≥ 1 must error")
	}
	if _, err := e.SolvePPR(tr, 0, ForwardPushOptions{Epsilon: -1}); err == nil {
		t.Error("negative epsilon must error")
	}
}

func seedVector(n int, seed int32) []float64 {
	v := make([]float64, n)
	v[seed] = 1
	return v
}
