package stats

import (
	"fmt"
	"math"
	"sort"

	"d2pr/internal/dataset/rng"
)

// BootstrapCI is a percentile bootstrap confidence interval for a rank
// correlation.
type BootstrapCI struct {
	// Point is the statistic on the full sample.
	Point float64
	// Lo and Hi bound the (1-alpha) percentile interval.
	Lo, Hi float64
	// Resamples is the number of bootstrap replicates drawn.
	Resamples int
}

// String formats the interval as "0.123 [0.100, 0.150]".
func (ci BootstrapCI) String() string {
	return fmt.Sprintf("%.4f [%.4f, %.4f]", ci.Point, ci.Lo, ci.Hi)
}

// SpearmanBootstrap estimates a percentile bootstrap confidence interval for
// Spearman's ρ of the paired samples. alpha is the two-sided error rate
// (0.05 gives a 95% interval); resamples ≤ 0 defaults to 1000. The seed
// makes the interval reproducible.
//
// The experiment harness uses this to separate real curve structure (the
// Group-A peak) from sampling noise (the ±0.5 peak-position wobble in
// Groups B/C): differences inside the interval are noise.
func SpearmanBootstrap(xs, ys []float64, alpha float64, resamples int, seed uint64) (BootstrapCI, error) {
	checkSameLen("SpearmanBootstrap", xs, ys)
	n := len(xs)
	if n < 3 {
		return BootstrapCI{}, fmt.Errorf("stats: bootstrap needs ≥ 3 observations, got %d", n)
	}
	if alpha <= 0 || alpha >= 1 {
		return BootstrapCI{}, fmt.Errorf("stats: bootstrap alpha %v out of (0, 1)", alpha)
	}
	if resamples <= 0 {
		resamples = 1000
	}
	r := rng.New(seed)
	bx := make([]float64, n)
	by := make([]float64, n)
	rhos := make([]float64, 0, resamples)
	for b := 0; b < resamples; b++ {
		for i := 0; i < n; i++ {
			j := r.Intn(n)
			bx[i] = xs[j]
			by[i] = ys[j]
		}
		rho := Spearman(bx, by)
		if !math.IsNaN(rho) {
			rhos = append(rhos, rho)
		}
	}
	if len(rhos) == 0 {
		return BootstrapCI{}, fmt.Errorf("stats: every bootstrap replicate degenerated (constant resamples)")
	}
	sort.Float64s(rhos)
	lo := quantileSorted(rhos, alpha/2)
	hi := quantileSorted(rhos, 1-alpha/2)
	return BootstrapCI{
		Point:     Spearman(xs, ys),
		Lo:        lo,
		Hi:        hi,
		Resamples: resamples,
	}, nil
}

// quantileSorted returns the q-quantile of an ascending slice with linear
// interpolation.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}
