package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestRanksSimple(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 5})
	want := []float64{3, 1.5, 1.5, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Ranks = %v, want %v", got, want)
	}
}

func TestRanksAllTied(t *testing.T) {
	got := Ranks([]float64{7, 7, 7})
	want := []float64{2, 2, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Ranks = %v, want %v", got, want)
	}
}

func TestRanksSumInvariant(t *testing.T) {
	// Property: fractional ranks always sum to n(n+1)/2 regardless of ties.
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) {
				xs[i] = 0
			}
		}
		if len(xs) == 0 {
			return true
		}
		var sum float64
		for _, r := range Ranks(xs) {
			sum += r
		}
		n := float64(len(xs))
		return almostEq(sum, n*(n+1)/2, 1e-6*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Error(err)
	}
}

func TestPearsonKnown(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPos := []float64{2, 4, 6, 8, 10}
	yNeg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, yPos); !almostEq(got, 1, 1e-12) {
		t.Errorf("Pearson perfect = %v", got)
	}
	if got := Pearson(x, yNeg); !almostEq(got, -1, 1e-12) {
		t.Errorf("Pearson inverse = %v", got)
	}
	if got := Pearson(x, []float64{3, 3, 3, 3, 3}); !math.IsNaN(got) {
		t.Errorf("Pearson constant = %v, want NaN", got)
	}
	if got := Pearson([]float64{1}, []float64{2}); !math.IsNaN(got) {
		t.Errorf("Pearson single = %v, want NaN", got)
	}
}

func TestPearsonMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on mismatched lengths")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

func TestSpearmanMonotoneInvariance(t *testing.T) {
	// Spearman is invariant under strictly monotone transforms.
	x := []float64{3, 1, 4, 1.5, 9, 2.6}
	y := []float64{1.2, 0.2, 7, 0.5, 12, 1.1}
	base := Spearman(x, y)
	exp := make([]float64, len(y))
	for i, v := range y {
		exp[i] = math.Exp(v)
	}
	if got := Spearman(x, exp); !almostEq(got, base, 1e-12) {
		t.Errorf("Spearman after exp = %v, want %v", got, base)
	}
	if !almostEq(base, 1, 1e-12) {
		t.Errorf("x and y are co-monotone, want ρ=1, got %v", base)
	}
}

func TestSpearmanKnownValue(t *testing.T) {
	// Classic example with one swapped pair.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 2, 3, 5, 4}
	// d = (0,0,0,1,1); ρ = 1 − 6·Σd²/(n(n²−1)) = 1 − 12/120 = 0.9.
	if got := Spearman(x, y); !almostEq(got, 0.9, 1e-12) {
		t.Errorf("Spearman = %v, want 0.9", got)
	}
}

func TestSpearmanWithTies(t *testing.T) {
	// Tie-aware Spearman equals Pearson of average ranks; verify against a
	// hand-computed case: x = [1,1,2], y = [5,6,7].
	// ranks(x) (descending) = [2.5, 2.5, 1]; ranks(y) = [3, 2, 1].
	x := []float64{1, 1, 2}
	y := []float64{5, 6, 7}
	want := Pearson([]float64{2.5, 2.5, 1}, []float64{3, 2, 1})
	if got := Spearman(x, y); !almostEq(got, want, 1e-12) {
		t.Errorf("Spearman = %v, want %v", got, want)
	}
}

func TestTopK(t *testing.T) {
	s := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	got := TopK(s, 3)
	want := []int{1, 3, 2} // ties by ascending index
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopK = %v, want %v", got, want)
	}
	if got := TopK(s, 99); len(got) != 5 {
		t.Errorf("TopK overflow = %d items", len(got))
	}
}

func TestRankOfAndCompetitionRanks(t *testing.T) {
	s := []float64{0.5, 0.9, 0.5, 0.1}
	ranks := CompetitionRanks(s)
	want := []int{2, 1, 2, 4}
	if !reflect.DeepEqual(ranks, want) {
		t.Errorf("CompetitionRanks = %v, want %v", ranks, want)
	}
	for pos, i := range TopKHeap(s, len(s)) {
		if got := RankOf(s, i); got != pos+1 {
			t.Errorf("RankOf(%d) = %d, want its TopKHeap row %d", i, got, pos+1)
		}
	}
}
