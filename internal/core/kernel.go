package core

import "math"

// sweepRows performs one pull sweep over destinations [lo, hi) of the
// permuted pull CSR and returns the block's partial L1 difference between
// next and cur. Fusing the residual into the sweep epilogue saves a separate
// two-stream pass over the score vectors per iteration (~10% of a warm
// solve, measured). The residual is summed in layout order (an original-id
// walk would be a gather costing ~30% of the solve, measured), so a
// relabeled engine's residual can differ from the unpermuted solve's in its
// last ulps; the iterates themselves stay bit-identical — the epilogue only
// reads them — and the difference could only become caller-visible if a
// residual straddled Tol inside that ulp-level window, a measure-zero
// margin.
//
// With probs == nil the transition is per-node factored: scaled must hold
// cur[u]·srcScale[u] (srcScale is 1/outdeg for the implicit uniform
// transition, the reciprocal factor sum for a rank-1 D2PR transition), and
// the epilogue also maintains the invariant for the next iteration by
// writing nextScaled[v] = next[v]·srcScale[v] — fusing what was a separate
// per-node prescale pass. rowFactor, non-nil only in the rank-1 case,
// multiplies each destination's accumulated sum once per row — the entire
// per-arc probability stream of the D2PR transition collapses into that one
// per-row multiply. With probs non-nil it holds per-arc probabilities in
// pull order and scaled/nextScaled/rowFactor/srcScale are unused.
//
// The accumulation is 4-way unrolled into independent partial sums: the
// single-accumulator loop this replaces serialized one FP add latency per
// arc, which — not bandwidth — was the sweep's bottleneck (the gather
// working set of a 30k-node graph already fits in L2). The reduction order
// (a0+a1)+(a2+a3) after the same 4-lane striping is fixed, so results are
// deterministic and identical across worker counts and node orderings: a
// destination's row always holds the same values in the same sequence (rows
// are filled in original source-scan order regardless of the relabeling),
// and each row is always reduced by this exact tree.
func sweepRows(offsets []int64, sources []int32, probs, cur, scaled, next, nextScaled, tele, rowFactor, srcScale []float64, alpha, base float64, lo, hi int) (diff float64) {
	tail := base + 1 - alpha
	if probs == nil && rowFactor != nil {
		for v := lo; v < hi; v++ {
			row := sources[offsets[v]:offsets[v+1]]
			var a0, a1, a2, a3 float64
			i := 0
			for ; i+4 <= len(row); i += 4 {
				a0 += scaled[row[i]]
				a1 += scaled[row[i+1]]
				a2 += scaled[row[i+2]]
				a3 += scaled[row[i+3]]
			}
			for ; i < len(row); i++ {
				a0 += scaled[row[i]]
			}
			acc := (a0 + a1) + (a2 + a3)
			x := alpha*rowFactor[v]*acc + tail*tele[v]
			next[v] = x
			nextScaled[v] = x * srcScale[v]
			diff += math.Abs(x - cur[v])
		}
		return diff
	}
	if probs == nil {
		for v := lo; v < hi; v++ {
			// Row subslice: i+4 <= len(row) lets the compiler drop the
			// per-arc bounds checks on the source stream; only the scaled
			// gather keeps one (its index is data).
			row := sources[offsets[v]:offsets[v+1]]
			var a0, a1, a2, a3 float64
			i := 0
			for ; i+4 <= len(row); i += 4 {
				a0 += scaled[row[i]]
				a1 += scaled[row[i+1]]
				a2 += scaled[row[i+2]]
				a3 += scaled[row[i+3]]
			}
			for ; i < len(row); i++ {
				a0 += scaled[row[i]]
			}
			acc := (a0 + a1) + (a2 + a3)
			x := alpha*acc + tail*tele[v]
			next[v] = x
			nextScaled[v] = x * srcScale[v]
			// math.Abs is a branchless intrinsic; a sign test here would
			// mispredict half the time (residual signs are random).
			diff += math.Abs(x - cur[v])
		}
		return diff
	}
	for v := lo; v < hi; v++ {
		klo, khi := offsets[v], offsets[v+1]
		row := sources[klo:khi]
		pr := probs[klo:khi]
		pr = pr[:len(row)] // no-op reslice: proves len(pr) == len(row) to BCE
		var a0, a1, a2, a3 float64
		i := 0
		for ; i+4 <= len(row); i += 4 {
			// The explicit conversion rounds each product before the add,
			// which forbids fusing the pair into one FMA (Go spec, Arithmetic
			// operators): every platform then sums the same rounded terms.
			a0 += float64(pr[i] * cur[row[i]])
			a1 += float64(pr[i+1] * cur[row[i+1]])
			a2 += float64(pr[i+2] * cur[row[i+2]])
			a3 += float64(pr[i+3] * cur[row[i+3]])
		}
		for ; i < len(row); i++ {
			a0 += float64(pr[i] * cur[row[i]])
		}
		acc := (a0 + a1) + (a2 + a3)
		x := alpha*acc + tail*tele[v]
		next[v] = x
		diff += math.Abs(x - cur[v])
	}
	return diff
}

// materializeScores renormalizes the converged iterate into a fresh
// original-id-order float64 score vector. Both the normalization sum and the
// scaling walk nodes in original id order (via permOf when the engine is
// relabeled), so the result is bit-identical to the unpermuted solve.
func materializeScores(x []float64, permOf []int32) []float64 {
	out := make([]float64, len(x))
	var sum float64
	if permOf == nil {
		for _, v := range x {
			sum += v
		}
		if sum <= 0 {
			copy(out, x)
			return out
		}
		inv := 1 / sum
		for i, v := range x {
			out[i] = v * inv
		}
		return out
	}
	for _, pv := range permOf {
		sum += x[pv]
	}
	if sum <= 0 {
		for i, pv := range permOf {
			out[i] = x[pv]
		}
		return out
	}
	inv := 1 / sum
	for i, pv := range permOf {
		out[i] = x[pv] * inv
	}
	return out
}

// teleportPermuted writes the normalized teleport distribution into tele,
// translated into the engine's permuted id space. The normalization sum runs
// over the caller's original-order vector, so the per-entry arithmetic is
// identical to the unpermuted solve.
func teleportPermuted(opts Options, tele []float64, permOf []int32) {
	if opts.Teleport == nil {
		u := 1 / float64(len(tele))
		for i := range tele {
			tele[i] = u
		}
		return
	}
	var s float64
	for _, v := range opts.Teleport {
		s += v
	}
	if permOf == nil {
		for i, v := range opts.Teleport {
			tele[i] = v / s
		}
		return
	}
	for i, v := range opts.Teleport {
		tele[permOf[i]] = v / s
	}
}
