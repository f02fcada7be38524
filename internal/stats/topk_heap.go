package stats

// TopKHeap returns the indices of the k largest scores in decreasing score
// order, ties broken by ascending index — the same contract as TopK — but in
// O(n log k) time and O(k) extra space via a bounded min-heap. It never
// sorts the full score vector, which is what makes k ≪ n top-k queries cheap
// on large graphs.
func TopKHeap(scores []float64, k int) []int {
	n := len(scores)
	if k > n {
		k = n
	}
	if k <= 0 {
		return []int{}
	}
	// h is a min-heap ordered worst-first: the root is the entry the next
	// admission evicts. The sifts are written out rather than run through
	// container/heap, whose interface calls cost more than the comparisons.
	h := make([]int, k)
	for i := range h {
		h[i] = i
		siftUp(scores, h, i)
	}
	worst := scores[h[0]]
	for i := k; i < n; i++ {
		// Admit i only if it beats the current worst kept entry. Equal
		// scores: the kept entry has the smaller index already (indices
		// arrive in ascending order), so skip.
		if scores[i] > worst {
			h[0] = i
			siftDown(scores, h, 0)
			worst = scores[h[0]]
		}
	}
	// Heapsort in place: moving each root (the worst entry left) to the end
	// leaves h best-first.
	for end := k - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(scores, h[:end], 0)
	}
	return h
}

// worse reports whether index a ranks below index b: a lower score, or an
// equal score at a larger index.
func worse(scores []float64, a, b int) bool {
	sa, sb := scores[a], scores[b]
	if sa != sb {
		return sa < sb
	}
	return a > b
}

// siftUp restores the heap order of h after h[j] changed.
func siftUp(scores []float64, h []int, j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !worse(scores, h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// siftDown restores the heap order of h after h[i] changed.
func siftDown(scores []float64, h []int, i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if j2 := j + 1; j2 < n && worse(scores, h[j2], h[j]) {
			j = j2
		}
		if !worse(scores, h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
