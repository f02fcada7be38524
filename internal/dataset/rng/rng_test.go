package rng

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("divergence at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 64; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d identical draws of 64", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ≈0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(9)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-n/7.0) > 0.05*n/7 {
			t.Errorf("Intn bucket %d count %d, want ≈%d", v, c, n/7)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		n := int(seed%50) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Error(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestParetoTail(t *testing.T) {
	r := New(17)
	const n = 100000
	over2 := 0
	for i := 0; i < n; i++ {
		x := r.Pareto(1, 2)
		if x < 1 {
			t.Fatalf("Pareto(1,2) = %v < xm", x)
		}
		if x > 2 {
			over2++
		}
	}
	// P(X > 2) = (1/2)^2 = 0.25.
	if frac := float64(over2) / n; math.Abs(frac-0.25) > 0.01 {
		t.Errorf("P(X>2) = %v, want 0.25", frac)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(19)
	for _, lambda := range []float64{0.5, 4, 80} {
		var sum float64
		const n = 50000
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		if mean := sum / n; math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("non-positive λ must yield 0")
	}
}

func TestAliasTableDistribution(t *testing.T) {
	weights := []float64{5, 1, 0, 4}
	a := NewAlias(weights)
	r := New(31)
	counts := make([]int, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[a.Draw(r)]++
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("alias index %d: frequency %v, want %v", i, got, want)
		}
	}
}

func TestAliasZeroSumUniform(t *testing.T) {
	a := NewAlias([]float64{0, 0, 0})
	r := New(37)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[a.Draw(r)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-10000) > 600 {
			t.Errorf("zero-sum alias index %d count %d, want ≈10000", i, c)
		}
	}
}

func TestAliasEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Draw from empty alias must panic")
		}
	}()
	NewAlias(nil).Draw(New(1))
}
