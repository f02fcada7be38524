package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// errAfterCtx is a context whose Err() flips to Canceled on the nth call.
// The solvers poll only ctx.Err() (never Done), so the flip point pins down
// exactly which iteration observes the cancellation — the tests below use it
// to prove the "aborts within one iteration" contract deterministically,
// with no goroutines or wall-clock races.
type errAfterCtx struct {
	context.Context
	calls    atomic.Int64
	cancelAt int64
}

func errAfter(n int64) *errAfterCtx {
	return &errAfterCtx{Context: context.Background(), cancelAt: n}
}

func (c *errAfterCtx) Err() error {
	if c.calls.Add(1) >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

func requireCancelErr(t *testing.T, err error, wantProgress string) {
	t.Helper()
	if err == nil {
		t.Fatal("expected cancellation error, got nil")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v is not context.Canceled", err)
	}
	if !strings.Contains(err.Error(), wantProgress) {
		t.Fatalf("error %q does not report progress %q", err, wantProgress)
	}
}

// TestSolveContextCancelsWithinOneIteration: the power loop polls ctx at the
// top of every iteration, so an Err() that flips on poll k aborts the solve
// with exactly k-1 completed iterations — within one iteration of the
// cancellation, for both the sequential and parallel sweep paths and for a
// factored and a per-arc (β-blended) transition. After the cancelled solves
// the engine must still solve: their pooled buffers were returned, not
// leaked mid-solve.
func TestSolveContextCancelsWithinOneIteration(t *testing.T) {
	g := powerLawGraph(t, 500, 5, 7)
	blended, err := Blended(g, 1.2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string // subtest name prefix
		tr   *Transition
	}{{"", DegreeDecoupled(g, 1)}, {"blended ", blended}} {
		tr := c.tr
		for _, workers := range []int{1, 4} {
			for _, flipAt := range []int64{1, 4} {
				t.Run(fmt.Sprintf("%sworkers=%d flip=%d", c.name, workers, flipAt), func(t *testing.T) {
					ctx := errAfter(flipAt)
					res, err := SolveContext(ctx, tr, Options{MaxIter: 50, Tol: 1e-300, Workers: workers})
					requireCancelErr(t, err, fmt.Sprintf("after %d/50 iterations", flipAt-1))
					if res != nil {
						t.Fatalf("cancelled solve returned a result: %+v", res)
					}
				})
			}
		}
		if _, err := Solve(tr, Options{MaxIter: 50}); err != nil {
			t.Fatalf("%ssolve after cancellation: %v", c.name, err)
		}
	}
}

// TestSolvePPRContextCancel: a pre-cancelled context aborts the push loop at
// its first poll (every 256 dequeues) instead of draining the queue. The
// tight epsilon forces far more than 256 pushes on this graph, so a
// completed solve here would mean the poll never fired.
func TestSolvePPRContextCancel(t *testing.T) {
	g := powerLawGraph(t, 3000, 6, 10)
	e := EngineFor(g)
	tr := Uniform(g)
	// Node 0 in powerLawGraph is dangling (only nodes ≥ 1 emit arcs); a
	// high-id seed spreads mass into the hub and forces a long push run.
	seed := int32(g.NumNodes() - 1)

	full, err := e.SolvePPR(tr, seed, ForwardPushOptions{Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if full.Pushes <= 256 {
		t.Fatalf("graph too easy for the cancellation test: only %d pushes", full.Pushes)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.SolvePPRContext(ctx, tr, seed, ForwardPushOptions{Epsilon: 1e-9})
	requireCancelErr(t, err, "pushes")
	if res != nil {
		t.Fatalf("cancelled solve returned a result: %+v", res)
	}

	// Scratch state went back to the pool zeroed: a follow-up solve on the
	// same engine must reproduce the uncancelled answer exactly.
	again, err := e.SolvePPR(tr, seed, ForwardPushOptions{Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if again.Pushes != full.Pushes || again.ResidualMass != full.ResidualMass {
		t.Fatalf("solve after cancellation diverged: %d pushes (want %d), residual %v (want %v)",
			again.Pushes, full.Pushes, again.ResidualMass, full.ResidualMass)
	}
}

// TestSolveContextDeadline: a real expired deadline (the serving-layer
// shape) aborts promptly — the wall-clock companion to the deterministic
// poll-counting tests above.
func TestSolveContextDeadline(t *testing.T) {
	g := powerLawGraph(t, 2000, 6, 11)
	tr := DegreeDecoupled(g, 1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := SolveContext(ctx, tr, Options{MaxIter: 1 << 20, Tol: 0})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}
