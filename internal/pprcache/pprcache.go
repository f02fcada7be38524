// Package pprcache holds the row type of the per-seed personalized-ranking
// results that the serving layer caches in an admitting rankcache.Cache
// (rankcache.NewAdmitting), keyed by the full personalized configuration
// (graph, seed, ε, α, k).
package pprcache

import "d2pr/internal/rankcache"

// Key identifies one personalized-ranking configuration. The serving layer
// builds it (rankspec.PPRSpec.CacheKey) so both the synchronous endpoint and
// batch cohort jobs derive the identical cache identity.
type Key = rankcache.Key

// Entry is one cached (node, score) pair of a top-k PPR result, in rank
// order. Degrees and rank numbers are derivable in O(k) at serve time, so
// the cache stores only the 12 bytes per row that a solve actually produces.
type Entry struct {
	Node  int32   `json:"node"`
	Score float64 `json:"score"`
}
