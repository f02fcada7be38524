package experiments

import (
	"context"
	"fmt"
	"math"
	"sync"

	"d2pr/internal/core"
	"d2pr/internal/dataset"
	"d2pr/internal/graph"
	"d2pr/internal/stats"
)

// Runner generates data graphs once and executes experiments against them.
// It is safe for concurrent use by multiple goroutines.
type Runner struct {
	// Data configures the synthetic data graphs (scale, seed).
	Data dataset.Config
	// Tol is the solver convergence tolerance. Correlations are stable to
	// ~1e-4 already at 1e-8, so experiments default to 1e-9 rather than the
	// solver's 1e-10.
	Tol float64

	mu     sync.Mutex
	graphs map[string]*dataset.DataGraph
}

// NewRunner returns a Runner with experiment defaults.
func NewRunner(data dataset.Config) *Runner {
	return &Runner{Data: data, Tol: 1e-9, graphs: map[string]*dataset.DataGraph{}}
}

// PSweep returns the paper's default de-coupling sweep: -4 to 4 in 0.5
// steps (§4.1).
func PSweep() []float64 {
	var ps []float64
	for p := -4.0; p <= 4.0+1e-9; p += 0.5 {
		ps = append(ps, math.Round(p*2)/2)
	}
	return ps
}

// Alphas returns the residual-probability sweep used in Figures 6–8. The
// paper varies α between 0.5 and 0.9 with default 0.85.
func Alphas() []float64 { return []float64{0.5, 0.7, 0.85, 0.9} }

// Betas returns the connection-strength mix sweep used in Figures 9–11
// (§4.1: β between 0.0 and 1.0, default 0).
func Betas() []float64 { return []float64{0, 0.25, 0.5, 0.75, 1.0} }

// DefaultAlpha is the paper's default residual probability.
const DefaultAlpha = 0.85

// Graph returns (generating and caching on first use) the named data graph.
func (r *Runner) Graph(name string) (*dataset.DataGraph, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.graphs[name]; ok {
		return d, nil
	}
	d, err := dataset.GraphByName(r.Data, name)
	if err != nil {
		return nil, err
	}
	r.graphs[d.Name] = d
	return d, nil
}

// AllGraphs returns all eight paper graphs, cached.
func (r *Runner) AllGraphs() ([]*dataset.DataGraph, error) {
	out := make([]*dataset.DataGraph, 0, 8)
	for _, name := range dataset.GraphNames() {
		d, err := r.Graph(name)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

func (r *Runner) solverOpts(alpha float64) core.Options {
	return core.Options{Alpha: alpha, Tol: r.Tol}
}

// Sweep evaluates Spearman's ρ between the significance vector and the
// D2PR ranking of g (residual probability α, blend β) for every p in ps.
// β = 0 is the paper's full de-coupling, on any graph; 0 < β ≤ 1 mixes in
// connection strength on a weighted one (§3.2.3).
func (r *Runner) Sweep(g *graph.Graph, sig []float64, alpha, beta float64, ps []float64) ([]float64, error) {
	eng := core.NewEngine(g)
	out := make([]float64, len(ps))
	for i, p := range ps {
		res, err := eng.Rank(context.Background(), core.Params{P: p, Beta: beta, Options: r.solverOpts(alpha)})
		if err != nil {
			return nil, fmt.Errorf("p=%v beta=%v: %w", p, beta, err)
		}
		out[i] = stats.Spearman(res.Scores, sig)
	}
	return out, nil
}

// Peak returns the p value maximizing rho and the maximum itself.
func Peak(ps, rhos []float64) (bestP, bestRho float64) {
	bestP, bestRho = math.NaN(), math.Inf(-1)
	for i, rho := range rhos {
		if rho > bestRho {
			bestRho = rho
			bestP = ps[i]
		}
	}
	return bestP, bestRho
}
