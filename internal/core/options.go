// Package core implements the ranking algorithms of the reproduction: the
// power-iteration solver, classic and personalized PageRank, the paper's
// degree de-coupled PageRank (D2PR) in its undirected, directed, and weighted
// (β-blended) forms, the degree-biased-teleportation alternative from the
// related work, and the baseline significance measures (degree, HITS,
// closeness, betweenness) the paper positions itself against.
//
// All algorithms operate on *graph.Graph CSR graphs and share one fixpoint:
//
//	r = α·T·r + (1-α)·t
//
// where T is a column-stochastic transition built by this package, t is the
// teleportation distribution, and α the residual probability. Dangling nodes
// (no out-arcs) re-distribute their walk mass to t, keeping Σr = 1 exactly.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"
)

// Default solver parameters. The paper's default residual probability is
// α = 0.85 (§4.1).
const (
	DefaultAlpha   = 0.85
	DefaultTol     = 1e-10
	DefaultMaxIter = 500
)

// Options configures the power-iteration solver shared by every ranker in
// this package. The zero value is usable: it means α=0.85, tol=1e-10,
// 500 iterations max, uniform teleportation, and sequential execution.
type Options struct {
	// Alpha is the residual probability (probability of following an edge
	// rather than teleporting). 0 means DefaultAlpha. Must lie in [0, 1).
	Alpha float64
	// Tol is the L1 convergence threshold. 0 means DefaultTol. Must be
	// positive and finite.
	Tol float64
	// MaxIter bounds the number of power iterations. 0 means DefaultMaxIter.
	MaxIter int
	// Teleport is the personalization distribution t. nil means uniform.
	// It must have one entry per node, all non-negative, summing to a
	// positive value (it is normalized internally).
	Teleport []float64
	// Workers sets the number of goroutines used for the edge sweep.
	// 0 means sequential; -1 means GOMAXPROCS.
	Workers int
}

// withDefaults returns a copy of o with zero fields replaced by defaults and
// validates the result for a graph with n nodes.
func (o Options) withDefaults(n int) (Options, error) {
	if o.Alpha == 0 {
		o.Alpha = DefaultAlpha
	}
	if !(o.Alpha >= 0 && o.Alpha < 1) { // also rejects NaN
		return o, fmt.Errorf("core: alpha %v out of range [0, 1)", o.Alpha)
	}
	if o.Tol == 0 {
		o.Tol = DefaultTol
	}
	if !(o.Tol > 0 && o.Tol <= math.MaxFloat64) { // also rejects NaN and +Inf
		return o, fmt.Errorf("core: tolerance %v is not a positive finite number", o.Tol)
	}
	if o.MaxIter == 0 {
		o.MaxIter = DefaultMaxIter
	}
	if o.MaxIter < 0 {
		return o, fmt.Errorf("core: negative MaxIter %d", o.MaxIter)
	}
	if o.Workers < 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Teleport != nil {
		if len(o.Teleport) != n {
			return o, fmt.Errorf("core: teleport vector has %d entries for %d nodes", len(o.Teleport), n)
		}
		var s float64
		for i, v := range o.Teleport {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return o, fmt.Errorf("core: teleport[%d] = %v is invalid", i, v)
			}
			s += v
		}
		if s <= 0 {
			return o, errors.New("core: teleport vector sums to zero")
		}
	}
	return o, nil
}

// Result reports the outcome of a power-iteration solve.
type Result struct {
	// Scores is the stationary distribution; it sums to 1.
	Scores []float64
	// Iterations is the number of power iterations performed.
	Iterations int
	// Converged reports whether the L1 residual dropped below Tol before
	// MaxIter was reached.
	Converged bool
	// Residual is the final L1 difference between successive iterates.
	Residual float64
	// Elapsed is the wall-clock time of the iteration loop, recorded by the
	// solver so serving-layer telemetry never needs to wrap a solve call in
	// its own timer.
	Elapsed time.Duration
}

// ErrEmptyGraph is returned when a ranker is asked to rank a graph with no
// nodes.
var ErrEmptyGraph = errors.New("core: graph has no nodes")
