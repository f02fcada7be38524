package core

import (
	"context"
	"fmt"
	"time"
)

// ForwardPushOptions configures the local-push PPR approximation.
type ForwardPushOptions struct {
	// Alpha is the residual probability (matching Options.Alpha; the same
	// fixpoint is approximated). 0 means DefaultAlpha.
	Alpha float64
	// Epsilon is the per-node residual threshold: push terminates when every
	// node's residual is below Epsilon·max(outdeg(node), 1). Smaller is more
	// accurate. 0 means DefaultPPREpsilon.
	Epsilon float64
	// MaxPushes caps the total number of push operations as a safety bound.
	// 0 means effectively unbounded for sane inputs.
	MaxPushes int
}

// DefaultPPREpsilon is the per-node residual threshold used when
// ForwardPushOptions.Epsilon is zero. It is a stopping threshold, not an
// error bound: the answer's L1 error is its PPRResult.ResidualMass (see
// SolvePPR), which at this ε reads 1.3e-3 to 8.8e-3 on the eight paper
// graphs.
const DefaultPPREpsilon = 1e-7

// PPRResult reports the outcome of a forward-push personalized solve.
type PPRResult struct {
	// Scores is the PPR estimate p̂. It sums to ≤ 1; the deficit is the
	// un-pushed residual mass.
	Scores []float64
	// ResidualMass is Σ_v r(v) at termination, and the exact L1 error
	// ‖p − p̂‖₁. The push invariant Σp̂ + Σr = 1 holds throughout the solve
	// (each push moves (1-α)·r(u) into the estimate and α·r(u) back into the
	// residual), so Scores-sum + ResidualMass = 1 up to floating-point
	// rounding at every ε.
	ResidualMass float64
	// Pushes is the number of push operations performed.
	Pushes int
	// Elapsed is the wall-clock time of the push loop, recorded by the
	// solver for serving-layer telemetry.
	Elapsed time.Duration
}

// pprScratch is the recycled solve-time state of SolvePPR: the residual
// vector, the work queue, and its membership bits. The queue is a ring of n
// slots: inQueue admits a node at most once while it waits, so no more than
// n entries are ever live and the ring never grows. r and inQueue are
// returned to the pool zeroed and the ring's contents are dead between
// solves, so a pooled scratch is ready to use as-is.
type pprScratch struct {
	r       []float64
	inQueue []bool
	queue   []int32
}

func (e *Engine) getPPR() *pprScratch {
	if s, ok := e.pprbuf.Get().(*pprScratch); ok {
		return s
	}
	return &pprScratch{
		r:       make([]float64, e.n),
		inQueue: make([]bool, e.n),
		queue:   make([]int32, e.n),
	}
}

func (e *Engine) putPPR(s *pprScratch) {
	clear(s.r)
	clear(s.inQueue)
	e.pprbuf.Put(s)
}

// SolvePPR computes an approximate personalized PageRank vector for a single
// seed using the Andersen–Chung–Lang forward local push, generalized to
// arbitrary transitions (so it works for D2PR transitions too — the
// locality-sensitive computation style of the paper's reference [17]).
// t must be a transition over the engine's graph.
//
// The accuracy contract is exact: every unpushed residual r(u) would become
// a PPR vector of mass r(u), so p̂(v) ≤ p(v) for every node v and
// ‖p − p̂‖₁ = ResidualMass. The push stops once every r(v) is below
// ε·max(outdeg(v), 1), so ResidualMass ≤ ε·(arcs + nodes without out-arcs).
// The worst-case work is Θ(1/((1−α)·ε)) pushes, independent of graph size;
// on the eight paper graphs at DefaultPPREpsilon the push makes 14–18
// pushes per node.
//
// This is the per-seed serving hot path: uniform transitions run off the
// engine's cached 1/outdeg table (no per-arc probability array exists), and
// the residual/queue scratch is pooled, so a warm solve allocates only the
// returned result — the same two-allocation discipline as a warm Solve.
func (e *Engine) SolvePPR(t *Transition, seed int32, opts ForwardPushOptions) (*PPRResult, error) {
	return e.SolvePPRContext(context.Background(), t, seed, opts)
}

// SolvePPRContext is SolvePPR with cancellation: the push loop polls ctx
// every few hundred dequeues (a push is far cheaper than a power-iteration
// sweep, so per-operation polling would dominate) and aborts with the
// context's error wrapped with push progress. A cancelled solve returns
// within a small constant number of pushes of the cancellation.
func (e *Engine) SolvePPRContext(ctx context.Context, t *Transition, seed int32, opts ForwardPushOptions) (*PPRResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if t.g != e.g {
		return nil, fmt.Errorf("core: transition over %v does not match engine graph %v", t.g, e.g)
	}
	g := e.g
	n := e.n
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	if seed < 0 || int(seed) >= n {
		return nil, fmt.Errorf("core: push seed %d out of range [0, %d)", seed, n)
	}
	if opts.Alpha == 0 {
		opts.Alpha = DefaultAlpha
	}
	if opts.Alpha < 0 || opts.Alpha >= 1 {
		return nil, fmt.Errorf("core: alpha %v out of range [0, 1)", opts.Alpha)
	}
	if opts.Epsilon == 0 {
		opts.Epsilon = DefaultPPREpsilon
	}
	if opts.Epsilon <= 0 {
		return nil, fmt.Errorf("core: epsilon %v must be positive", opts.Epsilon)
	}
	if opts.MaxPushes == 0 {
		opts.MaxPushes = 1 << 30
	}

	// In the teleporting-walk formulation used by Solve, the PPR vector is
	// p = (1-α) Σ_k α^k T^k e_seed. Forward push maintains p (estimate) and
	// r (residual) with invariant p + (1-α) Σ α^k T^k r = answer; since T is
	// stochastic (dangling mass returns to the seed), Σp + Σr = 1 exactly.
	solveStart := time.Now()
	p := make([]float64, n) // escapes as PPRResult.Scores
	st := e.getPPR()
	r, inQueue, queue := st.r, st.inQueue, st.queue
	r[seed] = 1

	var probs []float64
	if !t.uniform {
		probs = t.arcProbs()
	}
	invOut := e.invOut

	// The queue is first-in-first-out, so the push sweeps the frontier much
	// as a power iteration does (Wu et al., "PowerPush", SIGMOD 2021) and
	// pushes each node a few times with large residuals; last-in-first-out
	// order re-pushes the nodes it has just fed, with small residuals, tens
	// of times more often.
	head, size := 0, 0
	enqueue := func(v int32) {
		inQueue[v] = true
		tail := head + size
		if tail >= n {
			tail -= n
		}
		queue[tail] = v
		size++
	}
	threshold := func(u int32) float64 {
		d := g.Degree(u)
		if d == 0 {
			d = 1
		}
		return opts.Epsilon * float64(d)
	}
	enqueue(seed)
	pushes := 0
	steps := 0
	for size > 0 && pushes < opts.MaxPushes {
		steps++
		if steps&255 == 0 {
			if err := ctx.Err(); err != nil {
				e.putPPR(st)
				return nil, fmt.Errorf("core: ppr solve aborted after %d pushes: %w", pushes, err)
			}
		}
		u := queue[head]
		if head++; head == n {
			head = 0
		}
		size--
		inQueue[u] = false
		ru := r[u]
		if ru < threshold(u) {
			continue
		}
		pushes++
		p[u] += (1 - opts.Alpha) * ru
		r[u] = 0
		aru := opts.Alpha * ru
		lo, hi := g.ArcRange(u)
		if lo == hi {
			// Dangling node: walk mass returns to the seed (the same policy
			// the exact solver applies with a seed teleport vector).
			r[seed] += aru
			if !inQueue[seed] && r[seed] >= threshold(seed) {
				enqueue(seed)
			}
			continue
		}
		if probs == nil {
			// Implicit uniform transition: every out-arc of u carries the
			// cached 1/outdeg probability.
			pv := aru * invOut[u]
			for k := lo; k < hi; k++ {
				v := g.ArcTarget(k)
				r[v] += pv
				if !inQueue[v] && r[v] >= threshold(v) {
					enqueue(v)
				}
			}
			continue
		}
		for k := lo; k < hi; k++ {
			v := g.ArcTarget(k)
			r[v] += aru * probs[k]
			if !inQueue[v] && r[v] >= threshold(v) {
				enqueue(v)
			}
		}
	}
	var residual float64
	for _, rv := range r {
		residual += rv
	}
	e.putPPR(st)
	return &PPRResult{Scores: p, ResidualMass: residual, Pushes: pushes, Elapsed: time.Since(solveStart)}, nil
}
