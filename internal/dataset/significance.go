package dataset

import (
	"math"

	"d2pr/internal/dataset/rng"
)

// SignificanceBlend defines how a node's application-specific significance is
// synthesized from its planted latent quality and its realized degree in the
// data graph:
//
//	s(v) = QualityWeight·z(quality_v) + DegreeWeight·z(log(1+deg_v)) + NoiseWeight·ε_v
//
// with ε ~ N(0,1) and z(·) the population z-score. The blend weights are the
// per-application levers of the reproduction:
//
//   - DegreeWeight < 0 plants the Group-A semantics ("many edges means low
//     per-edge effort, hence low significance"),
//   - DegreeWeight ≈ 0..small plants Group B,
//   - DegreeWeight ≫ 0 plants Group C ("popularity is significance").
//
// Spearman correlation is rank-invariant, so any monotone rescaling of s
// (to look like ratings, citation counts, listen counts) leaves every
// experiment unchanged; the experiments use s directly.
type SignificanceBlend struct {
	QualityWeight float64
	DegreeWeight  float64
	NoiseWeight   float64
	Seed          uint64
}

// Synthesize produces the significance vector for nodes with the given
// qualities and degrees.
func (b SignificanceBlend) Synthesize(quality []float64, degrees []int) []float64 {
	n := len(quality)
	if len(degrees) != n {
		panic("dataset: quality/degree length mismatch")
	}
	logDeg := make([]float64, n)
	for i, d := range degrees {
		logDeg[i] = math.Log1p(float64(d))
	}
	zq := zscores(quality)
	zd := zscores(logDeg)
	r := rng.New(b.Seed)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = b.QualityWeight*zq[i] + b.DegreeWeight*zd[i] + b.NoiseWeight*r.NormFloat64()
	}
	return out
}

// zscores standardizes xs to zero mean and unit population variance; a
// constant vector maps to all zeros.
func zscores(xs []float64) []float64 {
	n := len(xs)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var variance float64
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= float64(n)
	if variance == 0 {
		return out
	}
	sd := math.Sqrt(variance)
	for i, x := range xs {
		out[i] = (x - mean) / sd
	}
	return out
}

// RatingScale maps a significance vector onto a bounded star-rating-like
// scale [lo, hi] by min-max scaling. Used by the examples to present
// synthetic scores as "average user ratings"; monotone, so rank experiments
// are unaffected.
func RatingScale(s []float64, lo, hi float64) []float64 {
	out := make([]float64, len(s))
	if len(s) == 0 {
		return out
	}
	mn, mx := s[0], s[0]
	for _, v := range s {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	span := mx - mn
	for i, v := range s {
		if span == 0 {
			out[i] = (lo + hi) / 2
			continue
		}
		out[i] = lo + (hi-lo)*(v-mn)/span
	}
	return out
}
