// Package pprcache is the per-seed result cache of the personalized-ranking
// serving path: a sharded LRU over computed top-k PPR entries, keyed by the
// full personalized configuration (graph, seed, ε, α, k).
//
// It differs from the global-score rankcache in two ways that match the
// per-seed workload:
//
//   - Sharding. Millions of distinct seeds mean the cache is hit from many
//     goroutines with little key overlap; a power-of-two array of
//     independently-locked shards (selected by key hash) keeps unrelated
//     seeds from serializing on one mutex.
//
//   - Frequency-based admission (tinyLFU-style). A global-score cache sees a
//     handful of configurations, so plain LRU works; a per-seed cache sees a
//     heavy-tailed stream where most seeds occur once. Each shard keeps a
//     4-bit count-min sketch of recent key frequencies; when the shard is
//     full, a newly computed entry is admitted only if its estimated
//     frequency exceeds the LRU victim's — so a one-off seed cannot evict a
//     hot one, and a newly-hot seed earns its slot after a few touches. The
//     sketch halves itself periodically so frequencies age.
//
// Concurrent Gets for the same key share one compute (single-flight), exactly
// like rankcache. A cached value is an immutable []Entry shared by every
// reader; callers must not modify it.
package pprcache

import (
	"container/list"
	"context"
	"fmt"
	"math/bits"
	"sync"
)

// Key identifies one personalized-ranking configuration. The serving layer
// builds it (rankspec.PPRSpec.CacheKey) so both the synchronous endpoint and
// batch cohort jobs derive the identical cache identity.
type Key string

// Entry is one cached (node, score) pair of a top-k PPR result, in rank
// order. Degrees and rank numbers are derivable in O(k) at serve time, so
// the cache stores only the 12 bytes per row that a solve actually produces.
type Entry struct {
	Node  int32   `json:"node"`
	Score float64 `json:"score"`
}

// ComputeFunc produces the top-k entries for a key on a cache miss. The
// context is the solve context: detached from any single requester's
// lifetime, cancelled only when every waiter for the key has abandoned the
// flight (see Get).
type ComputeFunc func(ctx context.Context) ([]Entry, error)

// Stats is a point-in-time snapshot of cache effectiveness counters,
// aggregated across shards.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Shared counts requests that piggybacked on another request's in-flight
	// solve (single-flight deduplication).
	Shared    uint64 `json:"shared"`
	Evictions uint64 `json:"evictions"`
	// Rejected counts computed entries the admission policy declined to
	// cache because their estimated frequency did not beat the LRU victim's.
	Rejected uint64 `json:"rejected"`
	// Abandoned counts in-flight solves cancelled because every waiter gave
	// up (request cancellation / deadline) before the solve finished.
	Abandoned uint64 `json:"abandoned"`
	Len       int    `json:"len"`
	Cap       int    `json:"cap"`
	Shards    int    `json:"shards"`
}

// DefaultCapacity is the total entry budget used when New is given a
// non-positive capacity. A cached entry is O(k) ≈ a few hundred bytes, so
// the default keeps the hot tier of a large seed population resident for a
// few MiB.
const DefaultCapacity = 4096

// DefaultShards is the shard count used when New is given a non-positive
// shard count. Must be a power of two.
const DefaultShards = 16

// call is an in-flight computation shared by concurrent requesters. waiters
// counts the requests currently parked on done (guarded by shard.mu); the
// last waiter to abandon cancels the detached solve via cancel.
type call struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	val     []Entry
	err     error
}

// cacheEntry is one resident LRU slot.
type cacheEntry struct {
	key Key
	val []Entry
}

// shard is one independently-locked slice of the cache: an LRU with its own
// frequency sketch and in-flight table.
type shard struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // front = most recently used; values are *cacheEntry
	index    map[Key]*list.Element
	inflight map[Key]*call
	sketch   cmSketch
	stats    Stats
}

// Cache is a sharded, concurrency-safe PPR result cache with tinyLFU-style
// admission and single-flight computation. The zero value is not usable;
// call New.
type Cache struct {
	shards []*shard
	mask   uint64
	// onPanic, when set, observes the recovered value whenever a compute
	// closure panics (before the panic is converted into the flight's error).
	onPanic func(recovered any)
}

// SetOnPanic installs a hook observing recovered compute panics — the
// serving layer points it at its panic telemetry counter. Set it before the
// cache serves traffic; it is not synchronized against concurrent Gets.
func (c *Cache) SetOnPanic(fn func(recovered any)) { c.onPanic = fn }

// New returns a Cache holding at most capacity entries across numShards
// shards. Non-positive arguments select DefaultCapacity / DefaultShards;
// numShards is rounded up to a power of two and down to capacity so every
// shard holds at least one entry.
func New(capacity, numShards int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if numShards <= 0 {
		numShards = DefaultShards
	}
	if numShards > capacity {
		numShards = capacity
	}
	// Round up to a power of two so shard selection is a mask, not a mod.
	if numShards&(numShards-1) != 0 {
		numShards = 1 << bits.Len(uint(numShards))
	}
	c := &Cache{shards: make([]*shard, numShards), mask: uint64(numShards - 1)}
	per := (capacity + numShards - 1) / numShards
	for i := range c.shards {
		c.shards[i] = &shard{
			capacity: per,
			lru:      list.New(),
			index:    map[Key]*list.Element{},
			inflight: map[Key]*call{},
			sketch:   newCMSketch(per),
		}
	}
	return c
}

// hashKey is FNV-1a over the key bytes; the low bits pick the shard and the
// full hash feeds the frequency sketch.
func hashKey(key Key) uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

func (c *Cache) shardFor(h uint64) *shard { return c.shards[h&c.mask] }

// Lookup returns the cached entries for key without computing anything. It
// counts as a use for LRU and frequency purposes but does not touch hit/miss
// counters.
func (c *Cache) Lookup(key Key) ([]Entry, bool) {
	h := hashKey(key)
	s := c.shardFor(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sketch.touch(h)
	if el, ok := s.index[key]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).val, true
	}
	return nil, false
}

// Get returns the entries for key, computing them with compute on a miss.
// Concurrent Gets for the same key share one compute call (single-flight).
// The second return reports whether the value was served without running
// compute in this request (resident hit or piggyback) — the serving layer's
// cache-status header. Errors are not cached; a later Get retries.
//
// Cancellation semantics match rankcache: ctx bounds this request's wait,
// not the solve. The compute runs in its own goroutine under a context
// detached from every requester, so one cancelled waiter abandons with
// ctx.Err() while the solve keeps running for the others; only the last
// waiter out cancels the detached solve.
func (c *Cache) Get(ctx context.Context, key Key, compute ComputeFunc) ([]Entry, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	h := hashKey(key)
	s := c.shardFor(h)
	s.mu.Lock()
	s.sketch.touch(h)
	if el, ok := s.index[key]; ok {
		s.lru.MoveToFront(el)
		s.stats.Hits++
		val := el.Value.(*cacheEntry).val
		s.mu.Unlock()
		return val, true, nil
	}
	if cl, ok := s.inflight[key]; ok {
		cl.waiters++
		s.stats.Shared++
		s.mu.Unlock()
		return s.wait(ctx, key, cl, true)
	}
	solveCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	cl := &call{done: make(chan struct{}), cancel: cancel, waiters: 1}
	s.inflight[key] = cl
	s.stats.Misses++
	s.mu.Unlock()

	go func() {
		// A panicking compute must not poison the key: waiters are parked
		// on cl.done and future Gets would block on the stale inflight
		// entry forever. The panic becomes an error delivered to every
		// waiter (it cannot re-raise on a requester's stack — the leader
		// may already be gone).
		defer func() {
			if r := recover(); r != nil {
				cl.err = fmt.Errorf("pprcache: compute for %q panicked: %v", key, r)
				if c.onPanic != nil {
					c.onPanic(r)
				}
			}
			s.finish(key, h, cl)
		}()
		cl.val, cl.err = compute(solveCtx)
	}()
	return s.wait(ctx, key, cl, false)
}

// wait parks one requester on an in-flight call until the solve finishes or
// the requester's own context is done, whichever is first.
func (s *shard) wait(ctx context.Context, key Key, cl *call, piggyback bool) ([]Entry, bool, error) {
	select {
	case <-cl.done:
		return cl.val, piggyback, cl.err
	case <-ctx.Done():
		s.abandon(key, cl)
		return nil, false, ctx.Err()
	}
}

// abandon drops one waiter from an in-flight call. The last waiter out
// cancels the detached solve and retires the inflight entry so a later Get
// starts fresh instead of joining a doomed flight.
func (s *shard) abandon(key Key, cl *call) {
	s.mu.Lock()
	cl.waiters--
	if cl.waiters == 0 && s.inflight[key] == cl {
		delete(s.inflight, key)
		s.stats.Abandoned++
		cl.cancel()
	}
	s.mu.Unlock()
}

// finish publishes a completed in-flight call: runs the admission decision
// on success, releases the waiters, and retires the inflight entry. The
// identity check guards against a fully-abandoned flight whose slot has
// already been retired (and possibly re-occupied by a fresh call).
func (s *shard) finish(key Key, h uint64, cl *call) {
	s.mu.Lock()
	if s.inflight[key] == cl {
		delete(s.inflight, key)
	}
	if cl.err == nil {
		s.admit(key, h, cl.val)
	}
	s.mu.Unlock()
	cl.cancel()
	close(cl.done)
}

// admit inserts a computed value, subject to frequency-based admission when
// the shard is full: the candidate must beat the LRU victim's estimated
// frequency to claim its slot. Callers hold s.mu.
func (s *shard) admit(key Key, h uint64, val []Entry) {
	if el, ok := s.index[key]; ok {
		// A concurrent leader for the same key already inserted; refresh.
		s.lru.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	for s.lru.Len() >= s.capacity {
		tail := s.lru.Back()
		victim := tail.Value.(*cacheEntry)
		if s.sketch.estimate(h) <= s.sketch.estimate(hashKey(victim.key)) {
			// The resident victim is at least as hot as the candidate:
			// serve the computed value but keep the cache as-is.
			s.stats.Rejected++
			return
		}
		s.lru.Remove(tail)
		delete(s.index, victim.key)
		s.stats.Evictions++
	}
	s.index[key] = s.lru.PushFront(&cacheEntry{key: key, val: val})
}

// Len returns the number of resident entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the effectiveness counters, aggregated across
// shards.
func (c *Cache) Stats() Stats {
	var st Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.stats.Hits
		st.Misses += s.stats.Misses
		st.Shared += s.stats.Shared
		st.Evictions += s.stats.Evictions
		st.Rejected += s.stats.Rejected
		st.Abandoned += s.stats.Abandoned
		st.Len += s.lru.Len()
		st.Cap += s.capacity
		s.mu.Unlock()
	}
	st.Shards = len(c.shards)
	return st
}
