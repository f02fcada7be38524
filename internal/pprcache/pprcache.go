// Package pprcache only names the PPR cache's key type. The cache is an
// admitting rankcache.Cache of []rankspec.PPRRow, keyed by
// rankspec.PPRSpec.CacheKey. perfbench/trace.go is the alias's only
// importer; the benchmark is edited only together with its reference
// numbers, and once that line names rankcache.Key this package can go.
package pprcache

import "d2pr/internal/rankcache"

// Key is rankcache.Key.
type Key = rankcache.Key
