package stats

import "math"

// Pearson returns the Pearson product-moment correlation of the paired
// samples xs and ys. It returns NaN when either sample has zero variance or
// fewer than two observations.
func Pearson(xs, ys []float64) float64 {
	checkSameLen("Pearson", xs, ys)
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns Spearman's rank correlation coefficient ρ of the paired
// samples: the Pearson correlation of their fractional ranks. This is the
// exact formula the paper states in §4.2 (with x̄, ȳ averages of the rank
// vectors), and it handles ties correctly via average ranks.
func Spearman(xs, ys []float64) float64 {
	checkSameLen("Spearman", xs, ys)
	return Pearson(Ranks(xs), Ranks(ys))
}
