package stats

import (
	"math"
	"strings"
	"testing"

	"d2pr/internal/dataset/rng"
)

// correlatedSample draws n pairs with a planted monotone relation plus
// noise.
func correlatedSample(n int, noise float64, seed uint64) (xs, ys []float64) {
	r := rng.New(seed)
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = xs[i] + noise*r.NormFloat64()
	}
	return xs, ys
}

func TestSpearmanBootstrapCoversPoint(t *testing.T) {
	xs, ys := correlatedSample(300, 0.25, 1)
	ci, err := SpearmanBootstrap(xs, ys, 0.05, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !(ci.Lo <= ci.Point && ci.Point <= ci.Hi) {
		t.Errorf("interval %v does not cover the point estimate", ci)
	}
	if ci.Hi-ci.Lo <= 0 || ci.Hi-ci.Lo > 0.5 {
		t.Errorf("interval width %v implausible for n=300", ci.Hi-ci.Lo)
	}
	if ci.Point < 0.5 {
		t.Errorf("point = %v, want strong positive for planted relation", ci.Point)
	}
	if !strings.Contains(ci.String(), "[") {
		t.Errorf("String() = %q", ci.String())
	}
}

func TestSpearmanBootstrapShrinksWithN(t *testing.T) {
	xsS, ysS := correlatedSample(50, 1, 3)
	xsL, ysL := correlatedSample(2000, 1, 3)
	small, err := SpearmanBootstrap(xsS, ysS, 0.05, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	large, err := SpearmanBootstrap(xsL, ysL, 0.05, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	if large.Hi-large.Lo >= small.Hi-small.Lo {
		t.Errorf("interval must shrink with n: n=2000 width %v vs n=50 width %v",
			large.Hi-large.Lo, small.Hi-small.Lo)
	}
}

func TestSpearmanBootstrapDeterministic(t *testing.T) {
	xs, ys := correlatedSample(100, 0.5, 5)
	a, err := SpearmanBootstrap(xs, ys, 0.05, 200, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpearmanBootstrap(xs, ys, 0.05, 200, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed gave %v vs %v", a, b)
	}
}

func TestSpearmanBootstrapValidation(t *testing.T) {
	xs, ys := correlatedSample(10, 0.5, 7)
	if _, err := SpearmanBootstrap(xs[:2], ys[:2], 0.05, 100, 1); err == nil {
		t.Error("n < 3 must error")
	}
	if _, err := SpearmanBootstrap(xs, ys, 0, 100, 1); err == nil {
		t.Error("alpha = 0 must error")
	}
	if _, err := SpearmanBootstrap(xs, ys, 1, 100, 1); err == nil {
		t.Error("alpha = 1 must error")
	}
}

func TestQuantileSorted(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := quantileSorted(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := quantileSorted(xs, 1); got != 4 {
		t.Errorf("q1 = %v", got)
	}
	if got := quantileSorted(xs, 0.5); got != 2.5 {
		t.Errorf("q0.5 = %v", got)
	}
	if !math.IsNaN(quantileSorted(nil, 0.5)) {
		t.Error("empty quantile must be NaN")
	}
}
