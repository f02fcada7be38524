package core

import (
	"math"
	"math/rand"
	"testing"

	"d2pr/internal/graph"
)

// TestSolvePPRMatchesDense is the property test for the personalized path:
// across random graph shapes, seeds, alphas and ε, the push solve must meet
// its exact contract against the independent dense solve, denseFixpoint.
// Every unpushed residual r(u) would become a PPR vector of mass r(u), so
// p̂ ≤ p entrywise and ‖p − p̂‖₁ = ResidualMass, and termination leaves each
// r(v) below ε·max(deg(v), 1).
func TestSolvePPRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 5; trial++ {
		g := skewedGraph(80+trial*40, uint64(100+trial))
		e := EngineFor(g)
		var tr *Transition
		if trial%2 == 0 {
			tr = Uniform(g)
		} else {
			tr = DegreeDecoupled(g, 0.5+rng.Float64())
		}
		alpha := 0.5 + 0.4*rng.Float64()
		seed := int32(rng.Intn(g.NumNodes()))
		exact := denseFixpoint(tr, alpha, seedVector(g.NumNodes(), seed))
		var slots int // Σ_v max(deg(v), 1): arcs plus dangling nodes
		for u := int32(0); int(u) < g.NumNodes(); u++ {
			slots += max(g.Degree(u), 1)
		}
		for _, eps := range []float64{1e-3, 1e-5, 1e-8} {
			res, err := e.SolvePPR(tr, seed, ForwardPushOptions{Alpha: alpha, Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			var shortfall float64
			for v := range exact {
				if res.Scores[v] > exact[v]+1e-12 {
					t.Fatalf("trial %d (α=%.3f, seed %d, ε=%g): node %d push %v above dense %v",
						trial, alpha, seed, eps, v, res.Scores[v], exact[v])
				}
				shortfall += exact[v] - res.Scores[v]
			}
			if d := math.Abs(shortfall - res.ResidualMass); d > 1e-9 {
				t.Errorf("trial %d (α=%.3f, seed %d, ε=%g): ‖p − p̂‖₁ = %v, ResidualMass %v (Δ=%v)",
					trial, alpha, seed, eps, shortfall, res.ResidualMass, d)
			}
			if bound := eps * float64(slots); res.ResidualMass > bound {
				t.Errorf("trial %d (α=%.3f, seed %d, ε=%g): ResidualMass %v above ε·Σmax(deg, 1) = %v",
					trial, alpha, seed, eps, res.ResidualMass, bound)
			}
		}
	}
}

// TestSolvePPRPushesPerNode pins the push count, which is deterministic and
// so independent of timing: the first-in-first-out queue pushes each node a
// few dozen times at ε = 1e-7, where a last-in-first-out queue re-pushes
// small residuals thousands of times per node.
func TestSolvePPRPushesPerNode(t *testing.T) {
	g := skewedGraph(400, 62)
	e := EngineFor(g)
	tr := Uniform(g)
	n := g.NumNodes()
	for _, seed := range []int32{3, 11, 200} {
		res, err := e.SolvePPR(tr, seed, ForwardPushOptions{Epsilon: 1e-7})
		if err != nil {
			t.Fatal(err)
		}
		if res.Pushes > 64*n {
			t.Errorf("seed %d: %d pushes, %.1f per node; want ≤ 64 per node",
				seed, res.Pushes, float64(res.Pushes)/float64(n))
		}
	}
}

// TestSolvePPRMassConservation checks the push invariant at every ε: each
// push moves (1-α)·r(u) into the estimate and α·r(u) back into residuals, so
// Σp̂ + Σr = 1 must hold exactly (up to rounding) no matter where the ε
// budget stops the solve.
func TestSolvePPRMassConservation(t *testing.T) {
	g := skewedGraph(400, 62)
	e := EngineFor(g)
	tr := Uniform(g)
	for _, eps := range []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8} {
		res, err := e.SolvePPR(tr, 11, ForwardPushOptions{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range res.Scores {
			if v < 0 {
				t.Fatalf("ε=%g: negative estimate %v", eps, v)
			}
			sum += v
		}
		if res.ResidualMass < 0 {
			t.Fatalf("ε=%g: negative residual mass %v", eps, res.ResidualMass)
		}
		if total := sum + res.ResidualMass; math.Abs(total-1) > 1e-9 {
			t.Errorf("ε=%g: Σp + Σr = %v, want 1", eps, total)
		}
	}
}

// TestSolvePPREpsilonMonotone: shrinking ε can only shrink the un-pushed
// residual — the ε-residual budget is a real accuracy dial.
func TestSolvePPREpsilonMonotone(t *testing.T) {
	g := skewedGraph(300, 63)
	e := EngineFor(g)
	tr := Uniform(g)
	prev := math.Inf(1)
	for _, eps := range []float64{1e-2, 1e-4, 1e-6, 1e-8} {
		res, err := e.SolvePPR(tr, 3, ForwardPushOptions{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		if res.ResidualMass > prev+1e-12 {
			t.Errorf("ε=%g: residual %v grew past coarser ε's %v", eps, res.ResidualMass, prev)
		}
		prev = res.ResidualMass
	}
	if prev > 1e-4 {
		t.Errorf("residual at ε=1e-8 still %v", prev)
	}
}

// TestSolvePPRMatchesSeededSolve: the push solve and the engine's power
// iteration with a seed teleport vector approximate the same fixpoint.
func TestSolvePPRMatchesSeededSolve(t *testing.T) {
	g := skewedGraph(250, 64)
	e := EngineFor(g)
	tr := DegreeDecoupled(g, 1.2)
	const seed = int32(9)
	exact, err := e.Solve(tr, Options{Tol: 1e-13, Teleport: seedVector(g.NumNodes(), seed)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SolvePPR(tr, seed, ForwardPushOptions{Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for v := range exact.Scores {
		if d := math.Abs(exact.Scores[v] - res.Scores[v]); d > 1e-5 {
			t.Fatalf("node %d: solve %v push %v (Δ=%v)", v, exact.Scores[v], res.Scores[v], d)
		}
	}
}

// TestSolvePPRWarmAllocs: a warm per-seed solve must allocate only the
// returned result (scores + the result struct) — the residual vector, queue,
// and membership bits come from the engine pool.
func TestSolvePPRWarmAllocs(t *testing.T) {
	g := skewedGraph(800, 65)
	e := EngineFor(g)
	tr := Uniform(g)
	seeds := []int32{0, 17, 256, 755}
	// Warm the pool (and grow the queue to its high-water mark).
	for _, s := range seeds {
		if _, err := e.SolvePPR(tr, s, ForwardPushOptions{Epsilon: 1e-6}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		s := seeds[i%len(seeds)]
		i++
		if _, err := e.SolvePPR(tr, s, ForwardPushOptions{Epsilon: 1e-6}); err != nil {
			t.Fatal(err)
		}
	})
	// 2 = scores + result struct; allow slack for an occasional post-GC pool
	// refill, which is still far under the O(n) scratch a cold path builds.
	if allocs > 4 {
		t.Errorf("warm SolvePPR: %.1f allocs/run, want ≤ 4", allocs)
	}
}

func TestSolvePPRValidation(t *testing.T) {
	g := skewedGraph(10, 66)
	e := EngineFor(g)
	tr := Uniform(g)
	if _, err := e.SolvePPR(tr, -1, ForwardPushOptions{}); err == nil {
		t.Error("negative seed must error")
	}
	if _, err := e.SolvePPR(tr, 100, ForwardPushOptions{}); err == nil {
		t.Error("out-of-range seed must error")
	}
	if _, err := e.SolvePPR(tr, 0, ForwardPushOptions{Alpha: 1.5}); err == nil {
		t.Error("alpha ≥ 1 must error")
	}
	if _, err := e.SolvePPR(tr, 0, ForwardPushOptions{Alpha: math.NaN()}); err == nil {
		t.Error("NaN alpha must error")
	}
	if _, err := e.SolvePPR(tr, 0, ForwardPushOptions{Epsilon: -1}); err == nil {
		t.Error("negative epsilon must error")
	}
	if _, err := e.SolvePPR(tr, 0, ForwardPushOptions{Epsilon: math.NaN()}); err == nil {
		t.Error("NaN epsilon must error")
	}
	if _, err := e.SolvePPR(tr, 0, ForwardPushOptions{Epsilon: math.Inf(1)}); err == nil {
		t.Error("+Inf epsilon must error")
	}
	other := skewedGraph(10, 67)
	if _, err := e.SolvePPR(Uniform(other), 0, ForwardPushOptions{}); err == nil {
		t.Error("transition over a different graph must error")
	}
}

func TestEngineConnectionCached(t *testing.T) {
	// Weighted graph: the connection transition materializes per-arc
	// probabilities; the engine must build them once and share.
	g := graph.NewBuilder(graph.Undirected).Weighted().
		AddWeightedEdge(0, 1, 2).AddWeightedEdge(1, 2, 1).AddWeightedEdge(2, 0, 3).
		MustBuild()
	e := EngineFor(g)
	c1, c2 := e.Connection(), e.Connection()
	if c1 != c2 {
		t.Error("Connection must return the cached transition")
	}
	if err := c1.validate(1e-12); err != nil {
		t.Error(err)
	}
}
