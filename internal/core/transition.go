package core

import (
	"fmt"
	"math"
	"sync"

	"d2pr/internal/graph"
)

// Transition is a column-stochastic random-walk transition over a graph,
// stored as one probability per CSR arc. For every non-dangling source node
// the probabilities of its out-arcs sum to 1; dangling nodes have no arcs and
// their mass is handled by the solver (redistributed to the teleport
// distribution).
//
// Uniform transitions (probability 1/outdeg everywhere) are represented
// implicitly: the solver runs them off the engine's cached 1/outdeg table
// and the per-arc array is only materialized if a caller actually reads
// probabilities (Prob, ProbsFrom, the samplers).
type Transition struct {
	g       *graph.Graph
	uniform bool

	once  sync.Once // guards lazy materialization for uniform/factored transitions
	probs []float64

	// Rank-1 factorization (original id space), set by DegreeDecoupled when
	// numerically safe: probs[k] = rowFactor[dst(k)] · srcScale[src(k)], with
	// srcScale[u] = 1/Σ_{v ∈ out(u)} rowFactor[v] (0 for dangling u). The
	// power solver consumes this instead of a per-arc array — the whole
	// O(arcs) probability stream disappears from the sweep. dp keeps the
	// de-coupling weight for lazy per-arc materialization (arcProbs).
	rowFactor []float64
	srcScale  []float64
	dp        float64
}

// Graph returns the graph the transition is defined over.
func (t *Transition) Graph() *graph.Graph { return t.g }

// arcProbs returns the per-arc probabilities, materializing the lazy uniform
// or factored representation on first use. Safe for concurrent callers. The
// factored case materializes through decoupledProbs (the shifted per-source
// evaluation), so the per-arc view is bit-identical to a pre-factorization
// DegreeDecoupled build.
func (t *Transition) arcProbs() []float64 {
	t.once.Do(func() {
		if t.probs == nil {
			if t.rowFactor != nil {
				t.probs = make([]float64, t.g.NumArcs())
				decoupledProbs(t.g, t.dp, logThetaTable(t.g), t.probs)
			} else {
				t.probs = uniformProbs(t.g)
			}
		}
	})
	return t.probs
}

// Prob returns the transition probability attached to arc k.
func (t *Transition) Prob(k int64) float64 { return t.arcProbs()[k] }

// ProbsFrom returns the probability slice parallel to g.Neighbors(u). The
// returned slice aliases internal storage and must not be modified.
func (t *Transition) ProbsFrom(u int32) []float64 {
	probs := t.arcProbs()
	lo, hi := t.g.ArcRange(u)
	return probs[lo:hi]
}

// Uniform builds the classic unweighted PageRank transition: from every node
// each out-arc is taken with probability 1/outdeg, ignoring edge weights.
// The per-arc array is lazy — solving a uniform transition through the
// engine touches no O(arcs) probability storage at all.
func Uniform(g *graph.Graph) *Transition {
	return &Transition{g: g, uniform: true}
}

// uniformProbs materializes the 1/outdeg probabilities of Uniform.
func uniformProbs(g *graph.Graph) []float64 {
	probs := make([]float64, g.NumArcs())
	n := g.NumNodes()
	for u := int32(0); int(u) < n; u++ {
		lo, hi := g.ArcRange(u)
		if hi == lo {
			continue
		}
		p := 1 / float64(hi-lo)
		for k := lo; k < hi; k++ {
			probs[k] = p
		}
	}
	return probs
}

// ConnectionStrength builds the conventional weighted PageRank transition
// T_conn(j,i) = w(i→j)/Σ_h w(i→h). For unweighted graphs it coincides with
// Uniform.
func ConnectionStrength(g *graph.Graph) *Transition {
	if !g.Weighted() {
		return Uniform(g)
	}
	t := &Transition{g: g, probs: make([]float64, g.NumArcs())}
	n := g.NumNodes()
	for u := int32(0); int(u) < n; u++ {
		lo, hi := g.ArcRange(u)
		if hi == lo {
			continue
		}
		var sum float64
		for k := lo; k < hi; k++ {
			sum += g.ArcWeight(k)
		}
		if sum <= 0 {
			// All-zero weights cannot happen (builder enforces w > 0), but
			// guard against hand-constructed graphs: fall back to uniform.
			p := 1 / float64(hi-lo)
			for k := lo; k < hi; k++ {
				t.probs[k] = p
			}
			continue
		}
		for k := lo; k < hi; k++ {
			t.probs[k] = g.ArcWeight(k) / sum
		}
	}
	return t
}

// DegreeDecoupled builds the paper's D2PR transition (Eq. 1 and its directed
// and weighted generalizations):
//
//	T_D(j,i) = Θ(v_j)^-p / Σ_{v_k ∈ out(v_i)} Θ(v_k)^-p
//
// where Θ(v) is the out-degree for unweighted graphs (the degree, for
// undirected graphs) and the total out-weight for weighted graphs. p > 0
// penalizes high-degree destinations, p < 0 boosts them, and p = 0 recovers
// the Uniform transition exactly.
//
// The per-source normalization is evaluated in log-space with the shifted-
// exponential trick, so extreme de-coupling weights (the paper sweeps p up to
// ±4 on graphs with degree ~10³) cannot overflow or underflow: for every
// source the largest factor is exp(0) = 1 and all others lie in (0, 1].
//
// Destinations with Θ = 0 (dangling targets of a directed graph) are treated
// as Θ = 1, the smallest degree a reachable node can meaningfully have; this
// keeps the factor finite for every p and is a no-op on the paper's graphs,
// which have no dangling targets.
//
// p = 0 returns the (implicit) Uniform transition: the factors are exactly
// exp(0)/outdeg = 1/outdeg, so no per-arc array needs to exist.
// When the unshifted factor table exp(-p·log Θ̂) and every per-source factor
// sum are positive finite numbers — always, except at extreme p·Θ̂ spreads —
// the transition is kept in its rank-1 factored form instead of a per-arc
// array: probs[k] = rowFactor[dst(k)]·srcScale[src(k)]. The power solver runs
// the factored form directly (one per-node table read per arc replaces the
// per-arc probability stream), and the per-arc view is materialized lazily,
// only if a caller actually reads probabilities.
func DegreeDecoupled(g *graph.Graph, p float64) *Transition {
	if p == 0 {
		return Uniform(g)
	}
	logTheta := logThetaTable(g)
	if rowFactor, srcScale := factoredDecoupled(g, p, logTheta); rowFactor != nil {
		return &Transition{g: g, rowFactor: rowFactor, srcScale: srcScale, dp: p}
	}
	t := &Transition{g: g, probs: make([]float64, g.NumArcs())}
	decoupledProbs(g, p, logTheta, t.probs)
	return t
}

// factoredDecoupled builds the rank-1 form of the D2PR transition, or returns
// (nil, nil) when the unshifted evaluation is unsafe anywhere: some factor is
// not a positive finite number, or some source fails factorScale's gate. One
// bad source rejects the whole factorization, because the power solver
// consumes the factored form for every row or not at all.
func factoredDecoupled(g *graph.Graph, p float64, logTheta []float64) (rowFactor, srcScale []float64) {
	n := g.NumNodes()
	rowFactor = make([]float64, n)
	if !decoupledFactors(p, logTheta, rowFactor) {
		return nil, nil
	}
	srcScale = make([]float64, n)
	for u := int32(0); int(u) < n; u++ {
		if g.OutDegree(u) == 0 {
			continue // dangling: srcScale stays 0
		}
		inv, ok := factorScale(g, u, rowFactor)
		if !ok {
			return nil, nil
		}
		srcScale[u] = inv
	}
	return rowFactor, srcScale
}

// decoupledFactors fills factor[v] = exp(-p·log Θ̂(v)), the unshifted
// per-node D2PR factor table: n exponentials instead of one per arc, since
// the per-source shift of the stable evaluation cancels in the
// normalization. It reports whether every factor is a positive finite
// number.
func decoupledFactors(p float64, logTheta, factor []float64) bool {
	ok := true
	for v, lt := range logTheta {
		f := math.Exp(-p * lt)
		factor[v] = f
		if f <= 0 || math.IsInf(f, 0) {
			ok = false
		}
	}
	return ok
}

// factorScale returns 1/Σ_{v ∈ out(u)} factor[v] for a non-dangling source u
// and whether the unshifted evaluation is safe there: the sum must be a
// positive finite number with a finite reciprocal (a denormal sum passes
// sum > 0, but 1/sum overflows). Sources that fail, possible only at extreme
// p·Θ̂ spreads, need the shifted evaluation (shiftedRow).
func factorScale(g *graph.Graph, u int32, factor []float64) (float64, bool) {
	lo, hi := g.ArcRange(u)
	var sum float64
	for k := lo; k < hi; k++ {
		sum += factor[g.ArcTarget(k)]
	}
	inv := 1 / sum
	return inv, sum > 0 && !math.IsInf(sum, 0) && !math.IsInf(inv, 0)
}

// logThetaTable precomputes log Θ̂ for every node — the p-independent half of
// the D2PR transition build.
func logThetaTable(g *graph.Graph) []float64 {
	n := g.NumNodes()
	logTheta := make([]float64, n)
	for v := 0; v < n; v++ {
		th := g.WeightedDegree(int32(v))
		if th < 1 {
			th = 1
		}
		logTheta[v] = math.Log(th)
	}
	return logTheta
}

// decoupledProbs writes the D2PR transition probabilities for de-coupling
// weight p into probs (parallel to the CSR arcs), using a precomputed
// logTheta table and the shifted evaluation for every source.
func decoupledProbs(g *graph.Graph, p float64, logTheta, probs []float64) {
	n := g.NumNodes()
	for u := int32(0); int(u) < n; u++ {
		if g.OutDegree(u) > 0 {
			shiftedRow(g, u, p, logTheta, probs)
		}
	}
}

// shiftedRow writes non-dangling source u's D2PR out-probabilities into its
// arc range of probs with the shifted-exponential trick: the largest term of
// the row is exp(0) = 1 and all others lie in (0, 1], so extreme p cannot
// over- or underflow.
func shiftedRow(g *graph.Graph, u int32, p float64, logTheta, probs []float64) {
	lo, hi := g.ArcRange(u)
	// exponent for arc k: e_k = -p * log Θ̂(dst)
	maxE := math.Inf(-1)
	for k := lo; k < hi; k++ {
		if e := -p * logTheta[g.ArcTarget(k)]; e > maxE {
			maxE = e
		}
	}
	var sum float64
	for k := lo; k < hi; k++ {
		w := math.Exp(-p*logTheta[g.ArcTarget(k)] - maxE)
		probs[k] = w
		sum += w
	}
	inv := 1 / sum
	for k := lo; k < hi; k++ {
		probs[k] *= inv
	}
}

// Blended builds the weighted-graph D2PR transition of §3.2.3:
//
//	T(j,i) = β·T_conn(j,i) + (1-β)·T_D(j,i)
//
// β = 1 is conventional weighted PageRank, built without using p; β = 0 is
// full degree de-coupling. p must be finite and β must lie in [0, 1]. On an
// unweighted graph the transitions that reduce to the uniform one (β = 1, or
// p = 0) stay implicit, and β = 0 keeps DegreeDecoupled's factored form. A
// proper blend is computed in place into a single per-arc buffer (see
// blendedProbs).
func Blended(g *graph.Graph, p, beta float64) (*Transition, error) {
	switch {
	case math.IsNaN(p) || math.IsInf(p, 0):
		return nil, fmt.Errorf("core: invalid de-coupling weight p = %v", p)
	case beta < 0 || beta > 1 || math.IsNaN(beta):
		return nil, fmt.Errorf("core: beta %v out of range [0, 1]", beta)
	case beta == 0:
		return DegreeDecoupled(g, p), nil
	case beta == 1:
		return ConnectionStrength(g), nil
	case p == 0 && !g.Weighted():
		// Both halves are the uniform transition, so the blend is too; keep
		// it implicit rather than blending a distribution with itself.
		return Uniform(g), nil
	}
	t := &Transition{g: g, probs: make([]float64, g.NumArcs())}
	blendedProbs(g, p, beta, t.probs)
	return t, nil
}

// blendedProbs writes β·T_conn + (1-β)·T_D directly into probs, one source
// row at a time: the de-coupled weights are staged in the output row, then
// the connection-strength term is folded in, without materializing either
// source transition. The de-coupled half comes from the per-node factor
// table, one exponential per node instead of one per arc; a source whose
// factor sum fails factorScale's gate takes the shifted evaluation, so
// extreme p keeps DegreeDecoupled's stability guarantee. The two
// evaluations agree to a few ulps wherever both are safe.
func blendedProbs(g *graph.Graph, p, beta float64, probs []float64) {
	logTheta := logThetaTable(g)
	factor := make([]float64, len(logTheta))
	decoupledFactors(p, logTheta, factor)
	n := g.NumNodes()
	weighted := g.Weighted()
	for u := int32(0); int(u) < n; u++ {
		lo, hi := g.ArcRange(u)
		if hi == lo {
			continue
		}
		if inv, ok := factorScale(g, u, factor); ok {
			for k := lo; k < hi; k++ {
				probs[k] = factor[g.ArcTarget(k)] * inv
			}
		} else {
			shiftedRow(g, u, p, logTheta, probs)
		}
		// Connection half (see ConnectionStrength), folded in place.
		uniP := 1 / float64(hi-lo)
		var wsum float64
		if weighted {
			for k := lo; k < hi; k++ {
				wsum += g.ArcWeight(k)
			}
		}
		for k := lo; k < hi; k++ {
			connP := uniP
			if weighted && wsum > 0 {
				connP = g.ArcWeight(k) / wsum
			}
			probs[k] = beta*connP + (1-beta)*probs[k]
		}
	}
}

// NaivePow builds the D2PR transition using direct math.Pow evaluation with
// no log-space stabilization. It exists only as the ablation partner of
// DegreeDecoupled: on hub-heavy graphs with |p| ≥ 4 it produces ±Inf/NaN
// intermediate sums where the stable version does not. Do not use it outside
// tests and benchmarks.
func NaivePow(g *graph.Graph, p float64) *Transition {
	t := &Transition{g: g, probs: make([]float64, g.NumArcs())}
	n := g.NumNodes()
	theta := make([]float64, n)
	for v := 0; v < n; v++ {
		th := g.WeightedDegree(int32(v))
		if th < 1 {
			th = 1
		}
		theta[v] = th
	}
	for u := int32(0); int(u) < n; u++ {
		lo, hi := g.ArcRange(u)
		if hi == lo {
			continue
		}
		var sum float64
		for k := lo; k < hi; k++ {
			w := math.Pow(theta[g.ArcTarget(k)], -p)
			t.probs[k] = w
			sum += w
		}
		inv := 1 / sum
		for k := lo; k < hi; k++ {
			t.probs[k] *= inv
		}
	}
	return t
}

// Validate checks that the transition is column-stochastic: every node with
// out-arcs has probabilities summing to 1 within tol, and every probability
// is finite and non-negative. Testing aid.
func (t *Transition) Validate(tol float64) error {
	n := t.g.NumNodes()
	probs := t.arcProbs()
	for u := int32(0); int(u) < n; u++ {
		lo, hi := t.g.ArcRange(u)
		if hi == lo {
			continue
		}
		var sum float64
		for k := lo; k < hi; k++ {
			p := probs[k]
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return fmt.Errorf("core: arc %d has invalid probability %v", k, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("core: node %d out-probabilities sum to %v, want 1±%v", u, sum, tol)
		}
	}
	return nil
}
