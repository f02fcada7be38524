package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty inputs must return 0")
	}
}

func TestMedianQuantile(t *testing.T) {
	xs := []float64{1, 3, 2, 4}
	if got := Median(xs); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Errorf("q1 = %v, want 4", got)
	}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Errorf("q0.5 = %v, want 2.5", got)
	}
	// Linear interpolation: q0.25 of sorted [1 2 3 4] = 1.75.
	if got := Quantile(xs, 0.25); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("q0.25 = %v, want 1.75", got)
	}
	if !reflect.DeepEqual(xs, []float64{1, 3, 2, 4}) {
		t.Error("Quantile mutated input")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v/%v, want -1/7", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Error("MinMax of empty must panic")
		}
	}()
	MinMax(nil)
}

func TestNormalize(t *testing.T) {
	xs := []float64{1, 3}
	Normalize(xs)
	if !reflect.DeepEqual(xs, []float64{0.25, 0.75}) {
		t.Errorf("Normalize = %v", xs)
	}
	zero := []float64{0, 0, 0, 0}
	Normalize(zero)
	for _, v := range zero {
		if v != 0.25 {
			t.Errorf("zero-sum Normalize = %v, want uniform", zero)
			break
		}
	}
}

func TestNormalizeSumsToOne(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && x >= 0 {
				// Fold huge magnitudes into a sane range so the sum cannot
				// overflow — Normalize documents finite-sum inputs.
				clean = append(clean, math.Mod(x, 1e6))
			}
		}
		if len(clean) == 0 {
			return true
		}
		Normalize(clean)
		var s float64
		for _, v := range clean {
			s += v
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Error(err)
	}
}

func TestL1Distance(t *testing.T) {
	if got := L1Distance([]float64{1, 2}, []float64{3, 0}); got != 4 {
		t.Errorf("L1 = %v, want 4", got)
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{1, 5, 5, 2}); got != 1 {
		t.Errorf("ArgMax = %d, want 1 (first of ties)", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Errorf("ArgMax(nil) = %d, want -1", got)
	}
}
