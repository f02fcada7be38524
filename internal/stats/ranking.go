// Package stats implements the rank statistics the paper's evaluation is
// built on: fractional (average-tie) ranking, Spearman's rank correlation and
// Pearson correlation.
//
// Tie handling matters here: node degrees are small integers, so degree
// vectors contain enormous tie groups, and the Table-1 correlations are
// visibly wrong without average ranks.
package stats

import (
	"fmt"
	"sort"
)

// Ranks returns the fractional ranks of xs: the largest value gets rank 1,
// and tied values share the average of the ranks they span (the standard
// convention used for Spearman's ρ). NaNs are not allowed.
//
// Example: xs = [10, 20, 20, 5] → ranks = [3, 1.5, 1.5, 4].
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// positions i..j (0-based) share average rank of (i+1..j+1)
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// RankOf returns the 1-based competition rank ("standard" rank: 1 for the
// largest score; equal scores share the smallest rank of the group) of node
// i under the given scores. It is what the paper's Table 2 reports.
func RankOf(scores []float64, i int) int {
	r := 1
	for j, s := range scores {
		if s > scores[i] || (s == scores[i] && j < i) {
			r++
		}
	}
	return r
}

// CompetitionRanks returns the 1-based competition ranks for all scores:
// rank = 1 + (number of strictly larger scores). Tied scores receive the same
// rank. O(n log n).
func CompetitionRanks(scores []float64) []int {
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	out := make([]int, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		for k := i; k <= j; k++ {
			out[idx[k]] = i + 1
		}
		i = j + 1
	}
	return out
}

// TopK returns the indices of the k largest scores in decreasing score order,
// breaking ties by ascending index for determinism.
func TopK(scores []float64, k int) []int {
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > n {
		k = n
	}
	return idx[:k]
}

// checkSameLen panics with a descriptive message when the two samples differ
// in length; every correlation here is over paired observations.
func checkSameLen(name string, xs, ys []float64) {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: %s: mismatched lengths %d and %d", name, len(xs), len(ys)))
	}
}
