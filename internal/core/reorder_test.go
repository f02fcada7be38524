package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"d2pr/internal/dataset"
	"d2pr/internal/graph"
)

// Tests for the locality relabeling (computeOrder) and its central contract:
// a relabeled engine is invisible — a solve returns bit-identical scores to
// an identity-ordered engine's on the same graph.

func TestComputeOrderValidPermutation(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"skewed":   skewedGraph(300, 7),
		"powerlaw": powerLawGraph(t, 500, 6, 11),
	}
	// A disconnected graph with isolated and dangling nodes.
	b := graph.NewBuilder(graph.Directed).EnsureNodes(40)
	for i := int32(0); i < 15; i++ {
		b.AddEdge(i, (i+1)%15)
	}
	b.AddEdge(20, 21)
	b.AddEdge(22, 21)
	graphs["disconnected"] = b.MustBuild()

	for name, g := range graphs {
		origOf := computeOrder(g)
		if origOf == nil {
			continue // identity order is a valid outcome
		}
		n := g.NumNodes()
		if len(origOf) != n {
			t.Fatalf("%s: order has %d entries, want %d", name, len(origOf), n)
		}
		seen := make([]bool, n)
		for _, v := range origOf {
			if v < 0 || int(v) >= n || seen[v] {
				t.Fatalf("%s: not a permutation: node %d repeated or out of range", name, v)
			}
			seen[v] = true
		}
	}
}

func TestComputeOrderDeterministic(t *testing.T) {
	g := powerLawGraph(t, 400, 7, 3)
	a := computeOrder(g)
	b := computeOrder(g)
	if (a == nil) != (b == nil) || len(a) != len(b) {
		t.Fatalf("repeat runs disagree: %d vs %d entries", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("repeat runs disagree at position %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestComputeOrderPinned pins the permutation itself, as an FNV-64a digest
// of origOf, on the scale-1 paper graphs, on directed graphs (hub-biased,
// and one with dangling and isolated nodes) and on a Barabási–Albert graph
// of many sweep blocks. The order is a layout choice that answers do not
// see, but an engine's build cost and its sweeps' locality do, so a change
// to it should be deliberate.
func TestComputeOrderPinned(t *testing.T) {
	digest := func(origOf []int32) uint64 {
		h := fnv.New64a()
		for _, v := range origOf {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(v)))
		}
		return h.Sum64()
	}
	want := map[string]uint64{
		"imdb-movie-movie":             0xbc60702aebd75fe5,
		"imdb-actor-actor":             0x945dd8d1006a5bfd,
		"dblp-article-article":         0x260583c8e8f083d9,
		"dblp-author-author":           0xde92eb98b9774fb5,
		"lastfm-listener-listener":     0x0d5cd4b43534a5d9,
		"lastfm-artist-artist":         0x9a922da6fb302a21,
		"epinions-commenter-commenter": 0xdfa765f9f3c49e95,
		"epinions-product-product":     0x2b660814053555a5,
		"powerlaw-directed":            0xc94560207c7aded5,
		"dangling-directed":            0xe243468b7c3bae05,
		"barabasi-albert":              0xf007c0bbfb7eccb5,
	}
	graphs := map[string]*graph.Graph{
		"powerlaw-directed": powerLawGraph(t, 20000, 5, 23),
		"dangling-directed": reorderTestGraphs(t)["dangling"],
		"barabasi-albert":   dataset.BarabasiAlbert(30000, 5, 42),
	}
	for _, d := range dataset.AllGraphs(dataset.Config{Scale: 1}) {
		graphs[d.Name] = d.Weighted
	}
	if nb := len(NewEngine(graphs["barabasi-albert"]).blocks) - 1; nb < 8 {
		t.Fatalf("the Barabási–Albert graph has %d sweep blocks, want several", nb)
	}
	for name, g := range graphs {
		if got := digest(computeOrder(g)); got != want[name] {
			t.Errorf("%s: order digest %#x, want %#x", name, got, want[name])
		}
	}
}

func TestComputeOrderHubsFront(t *testing.T) {
	// The hub-seeded BFS must pull high-degree nodes toward low permuted ids:
	// the top-degree decile's mean position must beat the global mean.
	g := skewedGraph(400, 13)
	origOf := computeOrder(g)
	if origOf == nil {
		t.Skip("identity order computed; nothing to check")
	}
	n := g.NumNodes()
	deg := make([]int, n)
	for u := int32(0); int(u) < n; u++ {
		lo, hi := g.ArcRange(u)
		deg[u] = int(hi - lo)
		for k := lo; k < hi; k++ {
			deg[g.ArcTarget(k)]++
		}
	}
	threshold := 0
	for _, d := range deg {
		if d > threshold {
			threshold = d
		}
	}
	threshold /= 2 // "hubs": within 2x of the max total degree
	var hubPos, hubCount float64
	for pos, v := range origOf {
		if deg[v] >= threshold {
			hubPos += float64(pos)
			hubCount++
		}
	}
	if hubCount == 0 {
		t.Fatal("no hubs found")
	}
	if mean := hubPos / hubCount; mean >= float64(n)/2 {
		t.Errorf("hub mean position %v not in front half of %d nodes", mean, n)
	}
}

// reorderTestGraphs are the topologies the invisibility tests sweep: hubs,
// dangling nodes, disconnected components, weighted arcs.
func reorderTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(99))
	gs := map[string]*graph.Graph{
		"skewed":   skewedGraph(250, 21),
		"powerlaw": powerLawGraph(t, 300, 5, 17),
		"weighted": randomWeighted(r, true),
	}
	b := graph.NewBuilder(graph.Directed).EnsureNodes(60)
	for i := int32(0); i < 40; i++ {
		if v := (i*7 + 3) % 40; v != i {
			b.AddEdge(i, v)
		}
		if i != 0 && (i*7+3)%40 != 0 {
			b.AddEdge(i, 0)
		}
	}
	b.AddEdge(50, 51) // 51 dangling, 52.. isolated
	gs["dangling"] = b.MustBuild()
	return gs
}

func TestReorderedEngineBitIdentical(t *testing.T) {
	// The tentpole invariant: relabeling is an internal layout choice. Power
	// iteration on a reordered engine must return byte-identical scores,
	// iteration counts, and convergence flags to the identity-ordered
	// engine, for the uniform, factored (D2PR), and per-arc transitions.
	for name, g := range reorderTestGraphs(t) {
		reordered := NewEngine(g)
		identity := newEngineIdentity(g)
		if reordered.origOf == nil {
			t.Logf("%s: order is identity; test degenerates", name)
		}
		transitions := map[string]*Transition{
			"uniform":  Uniform(g),
			"factored": DegreeDecoupled(g, 1.25),
			"arcprobs": ConnectionStrength(g),
		}
		if transitions["factored"].rowFactor == nil {
			t.Fatalf("%s: DegreeDecoupled(1.25) unexpectedly not factored", name)
		}
		for trName, tr := range transitions {
			opts := Options{Tol: 1e-12}
			a, err := reordered.Solve(tr, opts)
			if err != nil {
				t.Fatalf("%s/%s: reordered solve: %v", name, trName, err)
			}
			b, err := identity.Solve(tr, opts)
			if err != nil {
				t.Fatalf("%s/%s: identity solve: %v", name, trName, err)
			}
			if a.Iterations != b.Iterations || a.Converged != b.Converged {
				t.Fatalf("%s/%s: iterations %d/%v vs %d/%v", name, trName,
					a.Iterations, a.Converged, b.Iterations, b.Converged)
			}
			for i := range a.Scores {
				if a.Scores[i] != b.Scores[i] {
					t.Fatalf("%s/%s: score[%d] differs: %v vs %v", name, trName, i, a.Scores[i], b.Scores[i])
				}
			}
		}
	}
}

func TestReorderedTopKStable(t *testing.T) {
	// Downstream rankings cannot depend on the layout either.
	g := skewedGraph(200, 5)
	tr := DegreeDecoupled(g, 1)
	opts := Options{Tol: 1e-12}
	a, err := NewEngine(g).Solve(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newEngineIdentity(g).Solve(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := topIndices(a.Scores, 10), topIndices(b.Scores, 10)
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("top-k differs at %d: %d vs %d", i, ta[i], tb[i])
		}
	}
}

func topIndices(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k && i < len(idx); i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if scores[idx[j]] > scores[idx[best]] ||
				(scores[idx[j]] == scores[idx[best]] && idx[j] < idx[best]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:min(k, len(idx))]
}

func TestFactoredMatchesArcProbsSolve(t *testing.T) {
	// The rank-1 factored D2PR kernel reassociates the per-row arithmetic
	// (factor[v]·Σ cur·scale vs Σ prob·cur), so it is tolerance-equal — not
	// bit-equal — to the per-arc path. Force the per-arc path by solving the
	// materialized probabilities placed in pull order.
	for name, g := range reorderTestGraphs(t) {
		for _, p := range []float64{-1.5, 0.5, 1, 2.5} {
			tr := DegreeDecoupled(g, p)
			if tr.rowFactor == nil {
				t.Fatalf("%s: p=%v not factored", name, p)
			}
			opts := Options{Tol: 1e-14}
			a, err := solveFresh(tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := solveArcs(NewEngine(g), tr.arcProbs(), opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.Scores {
				if d := math.Abs(a.Scores[i] - b.Scores[i]); d > 1e-12 {
					t.Fatalf("%s p=%v: score[%d] differs by %v", name, p, i, d)
				}
			}
		}
	}
}

func TestFactoredFallbackExtremeP(t *testing.T) {
	// At extreme p the unshifted factor table under/overflows; the build
	// must fall back to the stable shifted per-arc form and still validate.
	g := skewedGraph(150, 31)
	for _, p := range []float64{400, -400} {
		tr := DegreeDecoupled(g, p)
		if tr.rowFactor != nil {
			t.Fatalf("p=%v: expected shifted fallback, got factored form", p)
		}
		if err := tr.validate(1e-9); err != nil {
			t.Fatalf("p=%v: fallback transition invalid: %v", p, err)
		}
		if _, err := solveFresh(tr, Options{Tol: 1e-10}); err != nil {
			t.Fatalf("p=%v: solve: %v", p, err)
		}
	}
}

func TestFactoredLazyArcProbs(t *testing.T) {
	// A factored transition materializes per-arc probabilities only on
	// demand, and the materialized view must match the pre-factorization
	// (shifted) row build bit for bit.
	g := skewedGraph(100, 9)
	tr := DegreeDecoupled(g, 1.5)
	if tr.rowFactor == nil {
		t.Fatal("not factored")
	}
	if tr.probs != nil {
		t.Fatal("probs materialized eagerly")
	}
	want := rowBuiltProbs(g, 1.5, 0, false)
	got := tr.arcProbs()
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("arc %d: %v != %v", k, got[k], want[k])
		}
	}
}
