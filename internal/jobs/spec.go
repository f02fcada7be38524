package jobs

import (
	"errors"
	"fmt"

	"d2pr/internal/core"
	"d2pr/internal/rankspec"
	"d2pr/internal/registry"
)

// ErrNoSignificance marks a correlating sweep over a graph that has no
// significance vector — a missing-resource condition (HTTP 404, matching
// /v1/{graph}/correlate) rather than a malformed spec (400).
var ErrNoSignificance = errors.New("has no significance vector to correlate against")

// MaxGridSize caps how many configurations one sweep may expand to. The cap
// bounds job memory (one retained ConfigResult per configuration) and keeps
// a single submission from monopolizing the worker pool indefinitely.
const MaxGridSize = 4096

// SweepSpec describes a parameter sweep over one graph: the cross product of
// the given p, β, and α lists, each configuration ranked with the same
// algorithm and optional personalized-teleport seed set. Empty lists
// default to a single entry (p=0, β=0, α=core.DefaultAlpha), so the zero
// grid is one conventional configuration.
type SweepSpec struct {
	// Graph names the registry entry to sweep.
	Graph string `json:"graph"`
	// Algo is the ranking algorithm (default "d2pr").
	Algo string `json:"algo,omitempty"`
	// Ps, Betas, and Alphas are the parameter axes; the sweep grid is their
	// cross product.
	Ps     []float64 `json:"ps,omitempty"`
	Betas  []float64 `json:"betas,omitempty"`
	Alphas []float64 `json:"alphas,omitempty"`
	// Seeds is a personalized teleport set applied to every configuration.
	Seeds []int32 `json:"seeds,omitempty"`
	// TopK, when positive, retains the k best rows per configuration in the
	// job results. Full score vectors are never stored in results — they
	// land in the rank cache, where later /rank requests find them.
	TopK int `json:"top_k,omitempty"`
	// Correlate computes the Spearman correlation of every configuration's
	// ranking against the graph's significance vector (the paper's central
	// measurement) plus the ranking-vs-degree correlation. Requires the
	// graph to carry a significance vector.
	Correlate bool `json:"correlate,omitempty"`
}

// withDefaults returns a copy with empty fields replaced by defaults.
func (sw SweepSpec) withDefaults() SweepSpec {
	if sw.Algo == "" {
		sw.Algo = rankspec.AlgoD2PR
	}
	if len(sw.Ps) == 0 {
		sw.Ps = []float64{0}
	}
	if len(sw.Betas) == 0 {
		sw.Betas = []float64{0}
	}
	if len(sw.Alphas) == 0 {
		sw.Alphas = []float64{core.DefaultAlpha}
	}
	return sw
}

// GridSize returns the number of configurations the sweep expands to
// (after defaulting empty axes).
func (sw SweepSpec) GridSize() int {
	sw = sw.withDefaults()
	return len(sw.Ps) * len(sw.Betas) * len(sw.Alphas)
}

// Validate checks the sweep after defaulting. Seed ids are bounds-checked
// only against non-negativity here; the upper bound needs the materialized
// graph and is re-checked when the job resolves it.
func (sw SweepSpec) Validate() error {
	sw = sw.withDefaults()
	if sw.Graph == "" {
		return fmt.Errorf("jobs: sweep names no graph")
	}
	if sw.TopK < 0 {
		return fmt.Errorf("jobs: negative top_k %d", sw.TopK)
	}
	if n := sw.GridSize(); n > MaxGridSize {
		return fmt.Errorf("jobs: sweep expands to %d configurations (max %d)", n, MaxGridSize)
	}
	// Every grid point shares the algo and seeds and varies only in p, β and
	// α, so Spec.Validate at one corner, then at that corner moved along each
	// axis in turn, covers every point.
	pt := rankspec.Spec{Graph: sw.Graph, Algo: sw.Algo, Alpha: sw.Alphas[0], Beta: sw.Betas[0], P: sw.Ps[0], Seeds: sw.Seeds}
	if err := pt.Validate(-1); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	pt.Seeds = nil // checked at the corner
	for _, axis := range []struct {
		dst  *float64
		vals []float64
	}{{&pt.P, sw.Ps}, {&pt.Beta, sw.Betas}, {&pt.Alpha, sw.Alphas}} {
		corner := *axis.dst
		for _, v := range axis.vals {
			*axis.dst = v
			if err := pt.Validate(-1); err != nil {
				return fmt.Errorf("jobs: %w", err)
			}
		}
		*axis.dst = corner
	}
	return nil
}

// ValidateWith performs the snapshot-dependent half of validation that
// Validate had to defer: seed upper bounds against the real node count, and
// the presence of a significance vector when the sweep correlates. Both the
// job runner (after resolving the graph) and the synchronous batch handler
// (which resolves it up front) use this, so the two paths cannot drift.
func (sw SweepSpec) ValidateWith(snap *registry.Snapshot) error {
	n := snap.Graph.NumNodes()
	for _, sd := range sw.Seeds {
		if int(sd) >= n {
			return fmt.Errorf("seed %d out of range for %d nodes", sd, n)
		}
	}
	if sw.Correlate && snap.Significance == nil {
		return fmt.Errorf("graph %q %w", sw.Graph, ErrNoSignificance)
	}
	return nil
}

// Expand materializes the configuration grid in deterministic order
// (p-major, then β, then α).
func (sw SweepSpec) Expand() []rankspec.Spec {
	sw = sw.withDefaults()
	out := make([]rankspec.Spec, 0, sw.GridSize())
	for _, p := range sw.Ps {
		for _, b := range sw.Betas {
			for _, a := range sw.Alphas {
				out = append(out, rankspec.Spec{
					Graph: sw.Graph, Algo: sw.Algo,
					P: p, Beta: b, Alpha: a, Seeds: sw.Seeds,
				})
			}
		}
	}
	return out
}
