package core

import "context"

// Solve runs power iteration on the transition until the L1 residual drops
// below opts.Tol or opts.MaxIter iterations elapse. The returned score
// vector sums to 1 (up to floating-point rounding).
//
// The pull topology (transpose, dangling set, and on a weighted graph the
// pull-order connection table) comes from the per-graph engine cache (see
// EngineFor): the first solve over a graph pays the O(m) transpose, and
// repeat solves build at most their per-arc probabilities in pull order —
// uniform, factored and connection-strength transitions not even that.
func Solve(t *Transition, opts Options) (*Result, error) {
	return SolveContext(context.Background(), t, opts)
}

// SolveContext is Solve with cancellation: the solver polls ctx once per
// iteration and aborts with the context's error (wrapped with iteration
// progress) when it is cancelled or its deadline expires. See
// Engine.SolveContext.
func SolveContext(ctx context.Context, t *Transition, opts Options) (*Result, error) {
	if t.g.NumNodes() == 0 {
		return nil, ErrEmptyGraph
	}
	return EngineFor(t.g).SolveContext(ctx, t, opts)
}
