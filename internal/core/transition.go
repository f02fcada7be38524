package core

import (
	"fmt"
	"math"
	"sync"

	"d2pr/internal/graph"
)

// Transition is a column-stochastic random-walk transition over a graph:
// for every non-dangling source node the probabilities of its out-arcs sum
// to 1; dangling nodes have no arcs and their mass is handled by the solver
// (redistributed to the teleport distribution).
//
// A Transition is a descriptor, not a probability array. The engine solves
// each kind from per-node data: the uniform walk from its cached 1/outdeg
// table, the factored D2PR form from two per-node tables, and a per-arc kind
// (extreme-p D2PR, a β-blend, connection strength on a weighted graph) from
// a pull-order array it builds per solve from per-node tables, or, for
// connection strength, reads from its own pull-order table. The forward-order
// view, one probability per CSR arc, is built on first use, only for callers
// that read probabilities (Prob, ProbsFrom, the push).
type Transition struct {
	g    *graph.Graph
	kind transitionKind
	// p is the de-coupling weight of the D2PR kinds and blends; beta the
	// blend weight.
	p, beta float64

	once  sync.Once // guards the lazy forward-order view
	probs []float64

	// Rank-1 factorization (original id space) of kindFactored:
	// probs[k] = rowFactor[dst(k)] · srcScale[src(k)], with
	// srcScale[u] = 1/Σ_{v ∈ out(u)} rowFactor[v] (0 for dangling u). The
	// power solver consumes this instead of a per-arc array — the whole
	// O(arcs) probability stream disappears from the sweep.
	rowFactor []float64
	srcScale  []float64
}

// transitionKind names how a Transition's probabilities are computed.
type transitionKind uint8

const (
	// kindUniform is 1/outdeg on every arc, weights ignored.
	kindUniform transitionKind = iota
	// kindFactored is D2PR in its rank-1 factored form.
	kindFactored
	// kindShifted is D2PR where the factored form is unsafe (extreme p):
	// every source takes the shifted evaluation (see shiftedScale).
	kindShifted
	// kindConnection is connection strength on a weighted graph.
	kindConnection
	// kindBlend is β·T_conn + (1−β)·T_D for 0 < β < 1.
	kindBlend
)

// Graph returns the graph the transition is defined over.
func (t *Transition) Graph() *graph.Graph { return t.g }

// arcProbs returns the forward-order per-arc probabilities, building them on
// first use. Safe for concurrent callers. The factored kind's view is its
// shifted per-source evaluation, bit-identical to a pre-factorization
// DegreeDecoupled build.
func (t *Transition) arcProbs() []float64 {
	t.once.Do(func() {
		switch t.kind {
		case kindUniform:
			t.probs = uniformProbs(t.g)
		case kindConnection:
			t.probs = connectionProbs(t.g)
		default:
			t.probs = forwardArcProbs(t)
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
	return &Transition{g: g, kind: kindUniform}
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
// Uniform. On a weighted graph the engine solves it from its own pull-order
// table (Engine.connP), so a solve builds nothing.
func ConnectionStrength(g *graph.Graph) *Transition {
	if !g.Weighted() {
		return Uniform(g)
	}
	return &Transition{g: g, kind: kindConnection}
}

// connectionProbs materializes ConnectionStrength's forward-order view.
func connectionProbs(g *graph.Graph) []float64 {
	probs := make([]float64, g.NumArcs())
	n := g.NumNodes()
	for u := int32(0); int(u) < n; u++ {
		lo, hi := g.ArcRange(u)
		w := g.WeightedDegree(u)
		for k := lo; k < hi; k++ {
			probs[k] = connProb(g.ArcWeight(k), w, hi-lo)
		}
	}
	return probs
}

// connProb is the connection-strength probability w/W of an arc of weight w
// out of a source of out-weight W and out-degree deg. A row whose weights sum
// to W ≤ 0 cannot come from the builder (it enforces w > 0), but guard
// against hand-constructed graphs: such a row falls back to uniform.
func connProb(w, W float64, deg int64) float64 {
	if W <= 0 {
		return 1 / float64(deg)
	}
	return w / W
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
// the transition is kept in its rank-1 factored form:
// probs[k] = rowFactor[dst(k)]·srcScale[src(k)]. The power solver runs the
// factored form directly (one per-node table read per arc replaces the
// per-arc probability stream). Otherwise every source takes the shifted
// evaluation, which the engine builds per solve in pull order.
func DegreeDecoupled(g *graph.Graph, p float64) *Transition {
	if p == 0 {
		return Uniform(g)
	}
	logTheta := make([]float64, g.NumNodes())
	fillLogTheta(g, logTheta)
	if rowFactor, srcScale := factoredDecoupled(g, p, logTheta); rowFactor != nil {
		return &Transition{g: g, kind: kindFactored, p: p, rowFactor: rowFactor, srcScale: srcScale}
	}
	return &Transition{g: g, kind: kindShifted, p: p}
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
// p·Θ̂ spreads, need the shifted evaluation (shiftedScale).
func factorScale(g *graph.Graph, u int32, factor []float64) (float64, bool) {
	lo, hi := g.ArcRange(u)
	var sum float64
	for k := lo; k < hi; k++ {
		sum += factor[g.ArcTarget(k)]
	}
	inv := 1 / sum
	return inv, sum > 0 && !math.IsInf(sum, 0) && !math.IsInf(inv, 0)
}

// fillLogTheta writes log Θ̂ for every node into logTheta — the
// p-independent half of the D2PR transition build.
func fillLogTheta(g *graph.Graph, logTheta []float64) {
	for v := range logTheta {
		th := g.WeightedDegree(int32(v))
		if th < 1 {
			th = 1
		}
		logTheta[v] = math.Log(th)
	}
}

// shiftedScale returns the shifted evaluation of non-dangling source u's
// D2PR row: maxE, the row's largest exponent −p·log Θ̂(v), and inv, the
// reciprocal of Σ exp(−p·log Θ̂(v) − maxE) over u's out-arcs. Arc u→v then
// has probability exp(−p·log Θ̂(v) − maxE)·inv: the largest term of the row
// is exp(0) = 1 and all others lie in (0, 1], so extreme p cannot over- or
// underflow.
func shiftedScale(g *graph.Graph, u int32, p float64, logTheta []float64) (inv, maxE float64) {
	lo, hi := g.ArcRange(u)
	maxE = math.Inf(-1)
	for k := lo; k < hi; k++ {
		if e := -p * logTheta[g.ArcTarget(k)]; e > maxE {
			maxE = e
		}
	}
	var sum float64
	for k := lo; k < hi; k++ {
		sum += math.Exp(float64(-p*logTheta[g.ArcTarget(k)]) - maxE)
	}
	return 1 / sum, maxE
}

// Blended builds the weighted-graph D2PR transition of §3.2.3:
//
//	T(j,i) = β·T_conn(j,i) + (1-β)·T_D(j,i)
//
// β = 1 is conventional weighted PageRank, built without using p; β = 0 is
// full degree de-coupling. p must be finite and β must lie in [0, 1]. On an
// unweighted graph the transitions that reduce to the uniform one (β = 1, or
// p = 0) stay implicit, and β = 0 keeps DegreeDecoupled's factored form. A
// proper blend is a descriptor: the engine builds its probabilities per solve,
// straight into pull order (see arcModel).
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
	return &Transition{g: g, kind: kindBlend, p: p, beta: beta}, nil
}

// arcModel evaluates a per-arc D2PR kind (kindShifted, kindBlend, and the
// forward view of kindFactored) as a function of an arc's two endpoints,
// from per-node tables laid out in one id space: original ids for the
// forward view, the engine's permuted ids for a solve's pull-order flow.
// Both evaluate every arc as prob does, on the same table values, so the
// flow is the forward view placed by pull position, bit for bit.
//
// The D2PR half of arc u→v is factor[v]·inv[u] when u passes factorScale's
// gate (blends only; maxE[u] is then NaN), and the shifted evaluation
// exp(−p·log Θ̂(v) − maxE[u])·inv[u] otherwise (see shiftedScale). NaN cannot
// be a shift: shiftedScale's maximum starts at −Inf and a NaN exponent never
// compares greater, while ±Inf can (an out-weight sum that overflows gives
// log Θ̂ = +Inf). The expressions and the order of each row sum must match
// the per-row reference builds in the tests bit for bit
// (TestForwardViewsMatchRowBuilds), so that answers do not move.
type arcModel struct {
	p, beta float64
	blend   bool
	// shifted reports whether any source takes the shifted evaluation.
	shifted bool
	// By destination: exp(−p·log Θ̂) (blends only) and log Θ̂ (read only
	// for shifted sources).
	factor, logTheta []float64
	// By source: the reciprocal row sum and the shift, NaN for a source that
	// passed the gate.
	inv, maxE []float64
}

// newArcModel builds the tables of t, a per-arc D2PR kind, with ids mapped
// through permOf (nil: original ids), taking each length-n table from alloc.
// The row sums run over forward arcs, in CSR order.
func newArcModel(t *Transition, permOf []int32, alloc func() []float64) arcModel {
	g := t.g
	m := arcModel{p: t.p, beta: t.beta, blend: t.kind == kindBlend, inv: alloc(), maxE: alloc()}
	logTheta := alloc()
	fillLogTheta(g, logTheta)
	var factor []float64
	if m.blend {
		factor = alloc()
		decoupledFactors(t.p, logTheta, factor)
	}
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		if g.OutDegree(u) == 0 {
			continue // no arcs read a dangling source's entries
		}
		pu := u
		if permOf != nil {
			pu = permOf[u]
		}
		if factor != nil {
			if inv, ok := factorScale(g, u, factor); ok {
				m.inv[pu], m.maxE[pu] = inv, math.NaN()
				continue
			}
		}
		m.inv[pu], m.maxE[pu] = shiftedScale(g, u, t.p, logTheta)
		m.shifted = true
	}
	m.factor, m.logTheta = factor, logTheta
	if permOf != nil {
		if factor != nil {
			m.factor = permuted(factor, permOf, alloc())
		}
		if m.shifted {
			m.logTheta = permuted(logTheta, permOf, alloc())
		}
	}
	return m
}

// permuted writes src into dst at the relabeled ids and returns dst.
func permuted(src []float64, permOf []int32, dst []float64) []float64 {
	for v, pv := range permOf {
		dst[pv] = src[v]
	}
	return dst
}

// prob returns the probability of arc u→v, given c, the arc's
// connection-strength probability (read by blends only). The conversion
// rounds the product before the subtraction, which forbids fusing the pair
// into one FMA (Go spec, Arithmetic operators), so every caller on every
// platform computes the same rounded terms.
func (m *arcModel) prob(u, v int32, c float64) float64 {
	var d float64
	if mx := m.maxE[u]; math.IsNaN(mx) {
		d = m.factor[v] * m.inv[u]
	} else {
		d = math.Exp(float64(-m.p*m.logTheta[v])-mx) * m.inv[u]
	}
	if !m.blend {
		return d
	}
	return blendProb(m.beta, c, d)
}

// blendProb returns β·c + (1−β)·d, each product rounded before the add.
func blendProb(beta, c, d float64) float64 {
	return float64(beta*c) + float64((1-beta)*d)
}

// forwardArcProbs materializes the forward-order view of a per-arc D2PR kind.
func forwardArcProbs(t *Transition) []float64 {
	g := t.g
	n := g.NumNodes()
	m := newArcModel(t, nil, func() []float64 { return make([]float64, n) })
	probs := make([]float64, g.NumArcs())
	for u := int32(0); int(u) < n; u++ {
		lo, hi := g.ArcRange(u)
		w := g.WeightedDegree(u)
		for k := lo; k < hi; k++ {
			probs[k] = m.prob(u, g.ArcTarget(k), connProb(g.ArcWeight(k), w, hi-lo))
		}
	}
	return probs
}
