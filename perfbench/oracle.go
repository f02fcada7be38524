package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"d2pr/internal/graph"
)

// The oracle recomputes every answer the benchmark checks from the paper's
// definitions. It deliberately shares no code with the packages it checks
// (core, rankspec, stats): it copies the graph into its own CSR arrays and
// runs a plain float64 scatter-form power iteration, so a fault in the
// server's solver, transition builds or rank statistics cannot hide behind
// the same fault in the reference.

const (
	oracleAlpha = 0.85
	// serverTol is the L1 convergence threshold the server's power iteration
	// stops at (core.DefaultTol); oracleTol is the reference's own, far
	// tighter one.
	serverTol = 1e-10
	oracleTol = 1e-13
)

// oracleErr bounds the oracle's own error: a power iteration stopped at L1
// step δ is within α/(1−α)·δ of the fixpoint in L1, and so is every single
// entry; 1e-12 covers rounding.
func oracleErr() float64 { return oracleAlpha/(1-oracleAlpha)*oracleTol + 1e-12 }

// rankBound is the largest absolute error a converged power-iteration score
// may have against the oracle's: the server's fixpoint error at its own
// tolerance plus the oracle's.
func rankBound() float64 { return oracleAlpha/(1-oracleAlpha)*serverTol + oracleErr() }

// oGraph is the oracle's own CSR copy of a graph.
type oGraph struct {
	n   int
	off []int64
	dst []int32
	w   []float64 // arc weights; 1 on unweighted graphs
}

func copyGraph(g *graph.Graph) *oGraph {
	n := g.NumNodes()
	og := &oGraph{n: n, off: make([]int64, n+1), dst: make([]int32, g.NumArcs()), w: make([]float64, g.NumArcs())}
	for u := int32(0); int(u) < n; u++ {
		lo, hi := g.ArcRange(u)
		og.off[u+1] = hi
		for k := lo; k < hi; k++ {
			og.dst[k] = g.ArcTarget(k)
			og.w[k] = g.ArcWeight(k)
		}
	}
	return og
}

func (og *oGraph) degree(u int32) int { return int(og.off[u+1] - og.off[u]) }

// degrees returns the arc count of every node as floats, the reference
// vector of the paper's ranking-vs-degree correlation.
func (og *oGraph) degrees() []float64 {
	d := make([]float64, og.n)
	for u := range d {
		d[u] = float64(og.degree(int32(u)))
	}
	return d
}

// isolated counts nodes without arcs.
func (og *oGraph) isolated() int {
	c := 0
	for u := 0; u < og.n; u++ {
		if og.degree(int32(u)) == 0 {
			c++
		}
	}
	return c
}

// transition returns the per-arc probabilities of the paper's blended
// transition
//
//	T(u→v) = β·w(u,v)/Σw(u,·) + (1−β)·Θ(v)^−p / Σ_{x∈out(u)} Θ(x)^−p
//
// where Θ is the weighted out-degree floored at 1. The de-coupled half is
// evaluated with shifted exponentials, so p = ±4 stays finite on hubs.
func (og *oGraph) transition(p, beta float64) []float64 {
	logTheta := make([]float64, og.n)
	for v := 0; v < og.n; v++ {
		var th float64
		for k := og.off[v]; k < og.off[v+1]; k++ {
			th += og.w[k]
		}
		logTheta[v] = math.Log(math.Max(th, 1))
	}
	probs := make([]float64, len(og.dst))
	for u := 0; u < og.n; u++ {
		lo, hi := og.off[u], og.off[u+1]
		if lo == hi {
			continue
		}
		var wsum float64
		shift := math.Inf(-1)
		for k := lo; k < hi; k++ {
			wsum += og.w[k]
			shift = math.Max(shift, -p*logTheta[og.dst[k]])
		}
		var dsum float64
		for k := lo; k < hi; k++ {
			dsum += math.Exp(-p*logTheta[og.dst[k]] - shift)
		}
		for k := lo; k < hi; k++ {
			probs[k] = beta*og.w[k]/wsum + (1-beta)*math.Exp(-p*logTheta[og.dst[k]]-shift)/dsum
		}
	}
	return probs
}

// power solves r = α·T·r + (1−α)·t, sending the walk mass of dangling
// nodes to t, until successive iterates differ by at most tol in L1. t must
// sum to 1.
func (og *oGraph) power(probs, tele []float64, tol float64) ([]float64, error) {
	x := append([]float64(nil), tele...)
	next := make([]float64, og.n)
	for iter := 0; iter < 5000; iter++ {
		var dangling float64
		for u := 0; u < og.n; u++ {
			if og.off[u] == og.off[u+1] {
				dangling += x[u]
			}
		}
		base := 1 - oracleAlpha + oracleAlpha*dangling
		for v := range next {
			next[v] = base * tele[v]
		}
		for u := 0; u < og.n; u++ {
			xu := oracleAlpha * x[u]
			for k := og.off[u]; k < og.off[u+1]; k++ {
				next[og.dst[k]] += xu * probs[k]
			}
		}
		var diff float64
		for v := range next {
			diff += math.Abs(next[v] - x[v])
		}
		x, next = next, x
		if diff <= tol {
			return x, nil
		}
	}
	return nil, errors.New("oracle: power iteration did not converge")
}

// rank returns the oracle's d2pr scores for (p, β) with uniform teleport.
func (og *oGraph) rank(p, beta float64) ([]float64, error) {
	tele := make([]float64, og.n)
	for v := range tele {
		tele[v] = 1 / float64(og.n)
	}
	return og.power(og.transition(p, beta), tele, oracleTol)
}

// ppr returns the oracle's personalized scores for one seed on the
// connection-strength transition (the one /ppr serves): the teleport, and
// the mass of dangling nodes, go to the seed.
func (og *oGraph) ppr(seed int32) ([]float64, error) {
	tele := make([]float64, og.n)
	tele[seed] = 1
	return og.power(og.transition(0, 1), tele, oracleTol)
}

// pushBound is forward push's own guarantee for a residual threshold ε: the
// push stops when every node's residual is below ε·max(deg, 1), so the
// un-pushed mass, and with it any one score's shortfall, is below
// ε·(arcs + isolated nodes).
func (og *oGraph) pushBound(eps float64) float64 {
	return eps * float64(len(og.dst)+og.isolated())
}

// spearman is Spearman's ρ with averaged tie ranks: the Pearson correlation
// of the two rank vectors.
func spearman(x, y []float64) float64 {
	return pearson(avgRanks(x), avgRanks(y))
}

func avgRanks(x []float64) []float64 {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return x[idx[a]] > x[idx[b]] })
	r := make([]float64, len(x))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

func pearson(x, y []float64) float64 {
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(len(x))
	my /= float64(len(y))
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

// row is one top-k row as the server returns it.
type row struct {
	Rank   int     `json:"rank"`
	Node   int32   `json:"node"`
	Degree int     `json:"degree"`
	Score  float64 `json:"score"`
}

// scoreRange is the interval a served score must lie in, given the oracle's
// score ref for the same node.
type scoreRange func(ref float64) (lo, hi float64)

// symmetric accepts |served − ref| ≤ bound: the power-iteration contract.
func symmetric(bound float64) scoreRange {
	return func(ref float64) (float64, float64) { return ref - bound, ref + bound }
}

// pushRange accepts 0 ≤ ref − served ≤ shortfall, widened by the oracle's
// own error: forward push only ever under-estimates.
func pushRange(shortfall float64) scoreRange {
	slack := oracleErr()
	return func(ref float64) (float64, float64) { return ref - shortfall - slack, ref + slack }
}

// checkTop verifies a top-k answer against the oracle's full vector ref:
// rows are numbered 1.., name distinct nodes with their degrees, descend,
// and each score lies in its range around the oracle's; no omitted node may
// have an oracle score whose range lies wholly above the last kept score.
// A rank answer has exactly min(k, n) rows; a push answer (short) may stop
// early, because nodes the push never reached score 0 and are dropped.
func checkTop(og *oGraph, rows []row, ref []float64, k int, short bool, rng scoreRange) error {
	if want := min(k, og.n); len(rows) > want || (!short && len(rows) != want) {
		return fmt.Errorf("got %d rows, want %d", len(rows), want)
	}
	seen := make(map[int32]bool, len(rows))
	for i, r := range rows {
		if r.Node < 0 || int(r.Node) >= og.n || seen[r.Node] {
			return fmt.Errorf("row %d: bad or repeated node %d", i+1, r.Node)
		}
		seen[r.Node] = true
		if r.Rank != i+1 {
			return fmt.Errorf("row %d: rank %d", i+1, r.Rank)
		}
		if r.Degree != og.degree(r.Node) {
			return fmt.Errorf("row %d: node %d degree %d, want %d", i+1, r.Node, r.Degree, og.degree(r.Node))
		}
		if i > 0 && r.Score > rows[i-1].Score {
			return fmt.Errorf("row %d: score %g above row %d's %g", i+1, r.Score, i, rows[i-1].Score)
		}
		if lo, hi := rng(ref[r.Node]); r.Score < lo || r.Score > hi {
			return fmt.Errorf("row %d: node %d score %.12g outside [%.12g, %.12g] around oracle %.12g",
				i+1, r.Node, r.Score, lo, hi, ref[r.Node])
		}
	}
	// The highest score an omitted node may have been served.
	var last float64
	if len(rows) == min(k, og.n) && len(rows) > 0 {
		last = rows[len(rows)-1].Score
	}
	for v, s := range ref {
		if seen[int32(v)] {
			continue
		}
		if lo, _ := rng(s); lo > last {
			return fmt.Errorf("node %d (oracle %.12g) omitted but the last row holds %.12g", v, s, last)
		}
	}
	return nil
}

// checkVector verifies a full served score vector: it sums to 1 and lies
// within bound of the oracle's in L1.
func checkVector(got, ref []float64, bound float64) error {
	if len(got) != len(ref) {
		return fmt.Errorf("vector has %d entries, want %d", len(got), len(ref))
	}
	var sum, l1 float64
	for i := range got {
		sum += got[i]
		l1 += math.Abs(got[i] - ref[i])
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("scores sum to %.15g, want 1", sum)
	}
	if l1 > bound {
		return fmt.Errorf("L1 distance %.3g to the oracle exceeds %.3g", l1, bound)
	}
	return nil
}

// spearmanTol bounds the difference between a served Spearman value and
// the oracle's over n nodes. The two score vectors agree to ~1e-9 in L1,
// so only nodes whose scores lie that close can change order, but one such
// change moves ρ by up to 12/n² (the scale-1 paper graphs show differences
// up to 1.8e-6). The tolerance allows two worst-case swaps and at least
// 1e-4; it rejects a value off by 0.01 on any graph above 50 nodes.
func spearmanTol(n int) float64 { return max(1e-4, 24/float64(n*n)) }

// checkSpearman verifies a served Spearman value over n nodes against the
// oracle's.
func checkSpearman(name string, got *float64, want float64, n int) error {
	if got == nil {
		return fmt.Errorf("%s missing", name)
	}
	if math.Abs(*got-want) > spearmanTol(n) {
		return fmt.Errorf("%s %.9f, oracle %.9f", name, *got, want)
	}
	return nil
}
