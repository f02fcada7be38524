package core

import (
	"context"
	"fmt"
	"math"
	"time"
)

// SolveGaussSeidel solves the same fixpoint as Solve with in-place
// Gauss–Seidel sweeps: each node update immediately uses the freshest scores
// of its in-neighbors. Whether that beats Jacobi power iteration depends on
// the node ordering relative to the graph: when the sweep order runs "with
// the grain" of the arcs (so in-neighbors are fresh by the time a node
// updates) it converges in a fraction of the sweeps, while against the grain
// it can need more sweeps than Jacobi — `BenchmarkAblationGaussSeidel`
// measures both. It exists as the ablation partner for the solver choice,
// not as a standalone default.
//
// Sweeps run in the engine's permuted (locality-relabeled) id space like
// every other solver here; because Gauss–Seidel's result depends on update
// order, its scores match Solve's only within Tol, not bit-for-bit — which
// has always been its contract (TestGaussSeidelMatchesPowerIteration).
//
// The pull topology comes from the per-graph engine cache, the same one
// Solve uses, so alternating between solvers on one graph never
// re-transposes it; uniform transitions run off the cached 1/outdeg table
// with no per-arc probabilities.
//
// The method is inherently sequential, so Options.Workers is ignored, and it
// always runs in the float64 tier (Options.Float32 is ignored too).
// Dangling-node handling and the teleport distribution match Solve exactly;
// both solvers converge to the same vector (within tolerance), which
// TestGaussSeidelMatchesPowerIteration asserts. Result.Iterations counts
// sweeps.
func SolveGaussSeidel(t *Transition, opts Options) (*Result, error) {
	return SolveGaussSeidelContext(context.Background(), t, opts)
}

// SolveGaussSeidelContext is SolveGaussSeidel with cancellation: ctx is
// polled once per sweep, and a cancelled solve aborts with the context's
// error wrapped with sweep progress instead of running to convergence.
func SolveGaussSeidelContext(ctx context.Context, t *Transition, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := t.g.NumNodes()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	opts, err := opts.withDefaults(n)
	if err != nil {
		return nil, err
	}
	return EngineFor(t.g).gaussSeidel(ctx, t, opts)
}

// gaussSeidel runs Gauss–Seidel sweeps over the engine's permuted pull CSR
// until convergence, MaxIter, or cancellation. opts must already have
// defaults applied. For per-node transitions (probs == nil) — rank-1
// factored when rowFactor/srcScale are set, the implicit uniform one
// otherwise — a scaled mirror x[u]·srcScale[u] is kept so each in-arc reads
// one value.
func (e *Engine) gaussSeidel(ctx context.Context, t *Transition, opts Options) (*Result, error) {
	n := e.n
	offsets, sources := e.pullOffsets, e.pullSources
	f := e.flowOf(t)
	defer f.release(e)
	probs, rowFactor, srcScale := f.probs, f.rowFactor, f.srcScale
	if srcScale == nil {
		srcScale = e.invOutP
	}
	telep, xp := getNT[float64](e), getNT[float64](e)
	defer putNT(e, telep)
	defer putNT(e, xp)
	tele, x := *telep, *xp
	teleportPermuted(opts, tele, e.permOf)
	copy(x, tele)
	var scaled []float64
	if probs == nil {
		scaledp := getNT[float64](e)
		defer putNT(e, scaledp)
		scaled = *scaledp
		for u := 0; u < n; u++ {
			scaled[u] = x[u] * srcScale[u]
		}
	}
	// Track the dangling mass incrementally: recomputing it per node would
	// be O(n·|dangling|). srcScale[v] == 0 identifies dangling nodes (true
	// for the 1/outdeg table and the factored reciprocal sums alike).
	var danglingMass float64
	for _, d := range e.dangling {
		danglingMass += x[d]
	}
	update := func(v int) float64 {
		lo, hi := offsets[v], offsets[v+1]
		var acc float64
		if probs == nil {
			for k := lo; k < hi; k++ {
				acc += scaled[sources[k]]
			}
			if rowFactor != nil {
				acc *= rowFactor[v]
			}
		} else {
			for k := lo; k < hi; k++ {
				acc += probs[k] * x[sources[k]]
			}
		}
		nv := opts.Alpha*acc + (opts.Alpha*danglingMass+1-opts.Alpha)*tele[v]
		d := nv - x[v]
		if srcScale[v] == 0 {
			danglingMass += d
		} else if probs == nil {
			scaled[v] = nv * srcScale[v]
		}
		x[v] = nv
		return math.Abs(d)
	}
	res := &Result{}
	solveStart := time.Now()
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: gauss-seidel solve aborted after %d/%d sweeps: %w", res.Iterations, opts.MaxIter, err)
		}
		// Alternate the sweep direction: whichever way the graph's natural
		// ordering points (citation DAGs point at lower ids, BFS orders at
		// higher ones), every second sweep runs "with the grain" and uses
		// fresh in-neighbor values. Nodes are visited in ORIGINAL id order —
		// Gauss–Seidel's convergence rate and result both depend on update
		// order, so sweeping through permOf keeps the grain argument (and
		// the scores, bit for bit) identical to an unpermuted engine; the
		// per-node indirection is noise against the per-arc work.
		var diff float64
		permOf := e.permOf
		if iter%2 == 1 {
			if permOf == nil {
				for v := n - 1; v >= 0; v-- {
					diff += update(v)
				}
			} else {
				for i := n - 1; i >= 0; i-- {
					diff += update(int(permOf[i]))
				}
			}
		} else {
			if permOf == nil {
				for v := 0; v < n; v++ {
					diff += update(v)
				}
			} else {
				for i := 0; i < n; i++ {
					diff += update(int(permOf[i]))
				}
			}
		}
		res.Iterations = iter
		res.Residual = diff
		if diff < opts.Tol {
			res.Converged = true
			break
		}
	}
	res.Elapsed = time.Since(solveStart)
	res.Scores = materializeScores(x, e.permOf)
	return res, nil
}
