// Package rankcache is the serving layer's result cache. One generic Cache
// fronts both query shapes, global rankings and per-seed personalized top-k
// rows, each under an opaque Key. Concurrent Gets for one key share one
// compute (single flight), so N identical requests cost one solve.
//
// The constructor fixes what a full cache does with a new value:
//
//   - NewLRU evicts the least recently used value into a bounded stale tier,
//     which the serving layer prefers over shedding a request (LookupStale).
//     A global-score cache sees a handful of configurations, so plain LRU
//     works.
//   - NewAdmitting keeps the LRU victim unless the new key is more frequent
//     (tinyLFU-style admission). A per-seed cache sees a heavy-tailed stream
//     where most seeds occur once; a 4-bit count-min sketch of recent key
//     frequencies lets a newly hot seed earn its slot after a few touches
//     while a one-off seed cannot evict a hot one. The sketch halves itself
//     periodically so frequencies age.
//
// A cached value is immutable and shared by every reader; callers must not
// modify it.
package rankcache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// Key identifies one cached configuration. The cache compares keys and
// nothing more; rankspec builds them (Spec.CacheKey, PPRSpec.CacheKey).
type Key string

// ComputeFunc produces the value for a key on a cache miss. The context is
// the solve context: detached from any single requester's lifetime,
// cancelled only when every waiter for the key has abandoned the flight (see
// Get).
type ComputeFunc[V any] func(ctx context.Context) (V, error)

// call is an in-flight computation shared by concurrent requesters. waiters
// counts the requests currently parked on done (guarded by Cache.mu); the
// last waiter to abandon cancels the detached solve via cancel.
type call[V any] struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	val     V
	err     error
}

// Stats is a point-in-time snapshot of cache effectiveness counters. Rejected
// stays 0 in an LRU cache, and StaleHits and StaleLen stay 0 in an admitting
// one.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Shared counts requests that piggybacked on another request's
	// in-flight solve (single-flight deduplication).
	Shared uint64 `json:"shared"`
	// Rejected counts computed values the admission policy declined to
	// cache because their key's estimated frequency did not beat the LRU
	// victim's.
	Rejected uint64 `json:"rejected"`
	// Abandoned counts in-flight solves cancelled because every waiter gave
	// up (request cancellation / deadline) before the solve finished.
	Abandoned uint64 `json:"abandoned"`
	// StaleHits counts requests served from the stale tier — evicted
	// values retained for degraded service under load shedding.
	StaleHits uint64 `json:"stale_hits"`
	Len       int    `json:"len"`
	Cap       int    `json:"cap"`
	StaleLen  int    `json:"stale_len"`
}

// Cache is a concurrency-safe LRU of computed values with single-flight
// computation. The zero value is not usable; call NewLRU or NewAdmitting.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	resident tier[V]
	// stale retains the values an LRU cache evicts, bounded at capacity; an
	// admitting cache never fills it.
	stale tier[V]
	// sketch estimates key frequencies for admission; nil in an LRU cache.
	sketch   *cmSketch
	inflight map[Key]*call[V]
	stats    Stats
	// onPanic, when set, observes the recovered value whenever a compute
	// closure panics (before the panic is converted into the flight's error).
	onPanic func(recovered any)
}

// DefaultCapacity is the cache size used when NewLRU is given a non-positive
// capacity. Score vectors are 8 bytes per node, so 256 resident vectors on a
// million-node graph is ~2 GiB — size the cache to the deployment.
const DefaultCapacity = 256

// DefaultAdmittingCapacity is the cache size used when NewAdmitting is given
// a non-positive capacity. A personalized top-k result is O(k) ≈ a few
// hundred bytes, so the default keeps the hot tier of a large seed
// population resident for a few MiB.
const DefaultAdmittingCapacity = 4096

// NewLRU returns a Cache holding at most capacity values that evicts its
// least recently used value into the stale tier when full.
func NewLRU[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return newCache[V](capacity)
}

// NewAdmitting returns a Cache holding at most capacity values that, when
// full, caches a new value only if its key's estimated frequency beats the
// least recently used value's.
func NewAdmitting[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultAdmittingCapacity
	}
	c := newCache[V](capacity)
	sketch := newCMSketch(capacity)
	c.sketch = &sketch
	return c
}

func newCache[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		capacity: capacity,
		resident: newTier[V](),
		stale:    newTier[V](),
		inflight: map[Key]*call[V]{},
	}
}

// SetOnPanic installs a hook observing recovered compute panics — the
// serving layer points it at its panic telemetry counter. Set it before the
// cache serves traffic; it is not synchronized against concurrent Gets.
func (c *Cache[V]) SetOnPanic(fn func(recovered any)) { c.onPanic = fn }

// Lookup returns the cached value for key without computing anything. It
// counts as a use for LRU and admission purposes but does not touch the
// hit/miss counters.
func (c *Cache[V]) Lookup(key Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(key)
	return c.resident.get(key)
}

// Get returns the value for key, computing it with compute on a miss.
// Concurrent Gets for the same key share one compute call (single-flight);
// the piggybacking callers block until the flight finishes. The second
// return reports whether the value was served without running compute in
// this request (resident hit or piggyback) — the serving layer's
// cache-status header. Errors are not cached; a later Get retries.
//
// Cancellation semantics: ctx bounds this request's wait, not the solve.
// The compute runs in its own goroutine under a context detached from every
// requester (context.WithoutCancel), so one cancelled waiter abandons its
// wait with ctx.Err() while the solve keeps running for the others — and
// the finished value is still cached for future requests. Only when the
// last waiter abandons is the detached solve context cancelled, letting the
// solver's periodic poll stop work nobody is waiting for.
func (c *Cache[V]) Get(ctx context.Context, key Key, compute ComputeFunc[V]) (V, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	c.touch(key)
	if val, ok := c.resident.get(key); ok {
		c.stats.Hits++
		c.mu.Unlock()
		return val, true, nil
	}
	if cl, ok := c.inflight[key]; ok {
		cl.waiters++
		c.stats.Shared++
		c.mu.Unlock()
		return c.wait(ctx, key, cl, true)
	}
	solveCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	cl := &call[V]{done: make(chan struct{}), cancel: cancel, waiters: 1}
	c.inflight[key] = cl
	c.stats.Misses++
	c.mu.Unlock()

	go func() {
		// A panicking compute must not poison the key: waiters are parked
		// on cl.done and future Gets would block on the stale inflight
		// entry forever. The panic becomes an error delivered to every
		// waiter (it cannot re-raise on a requester's stack — the leader
		// may already be gone).
		defer func() {
			if r := recover(); r != nil {
				cl.err = fmt.Errorf("rankcache: compute for %q panicked: %v", key, r)
				if c.onPanic != nil {
					c.onPanic(r)
				}
			}
			c.finish(key, cl)
		}()
		cl.val, cl.err = compute(solveCtx)
	}()
	return c.wait(ctx, key, cl, false)
}

// wait parks one requester on an in-flight call until the solve finishes or
// the requester's own context is done, whichever is first.
func (c *Cache[V]) wait(ctx context.Context, key Key, cl *call[V], piggyback bool) (V, bool, error) {
	select {
	case <-cl.done:
		return cl.val, piggyback, cl.err
	case <-ctx.Done():
		c.abandon(key, cl)
		var zero V
		return zero, false, ctx.Err()
	}
}

// abandon drops one waiter from an in-flight call. The last waiter out
// cancels the detached solve and retires the inflight entry so a later Get
// starts fresh instead of joining a doomed flight.
func (c *Cache[V]) abandon(key Key, cl *call[V]) {
	c.mu.Lock()
	cl.waiters--
	if cl.waiters == 0 && c.inflight[key] == cl {
		delete(c.inflight, key)
		c.stats.Abandoned++
		cl.cancel()
	}
	c.mu.Unlock()
}

// finish publishes a completed in-flight call: stores the value on success,
// releases the waiters, and retires the inflight entry. The identity check
// guards against a fully-abandoned flight whose slot has already been
// retired (and possibly re-occupied by a fresh call for the same key).
func (c *Cache[V]) finish(key Key, cl *call[V]) {
	c.mu.Lock()
	if c.inflight[key] == cl {
		delete(c.inflight, key)
	}
	if cl.err == nil {
		c.insert(key, cl.val)
	}
	c.mu.Unlock()
	cl.cancel()
	close(cl.done)
}

// insert stores a computed value. When the cache is full, an LRU cache
// demotes its least recently used value to the stale tier; an admitting
// cache evicts that victim only if the sketch rates key more frequent, and
// otherwise leaves the cache as it is (the caller still gets the value).
// Callers hold c.mu.
func (c *Cache[V]) insert(key Key, val V) {
	// A fresh value supersedes any stale copy of the same key.
	c.stale.remove(key)
	// A resident key is a concurrent leader's value for the same key (the
	// one an abandoned flight left behind); put refreshes it in place.
	if _, ok := c.resident.index[key]; !ok && c.resident.order.Len() >= c.capacity {
		victim := c.resident.oldest()
		if c.sketch != nil && c.sketch.estimate(hashKey(key)) <= c.sketch.estimate(hashKey(victim.key)) {
			c.stats.Rejected++
			return
		}
		c.resident.remove(victim.key)
		c.stats.Evictions++
		if c.sketch == nil {
			c.stale.put(victim.key, victim.val)
			if c.stale.order.Len() > c.capacity {
				c.stale.remove(c.stale.oldest().key)
			}
		}
	}
	c.resident.put(key, val)
}

// touch records one use of key in an admitting cache's frequency sketch.
// Callers hold c.mu.
func (c *Cache[V]) touch(key Key) {
	if c.sketch != nil {
		c.sketch.touch(hashKey(key))
	}
}

// hashKey is FNV-1a over the key bytes; it feeds the frequency sketch.
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

// LookupStale returns the retained copy of a value that has been evicted
// from an LRU cache's resident tier. The serving layer consults it only when
// admission control would otherwise shed the request: a slightly-old score
// beats a 429. It never computes and never touches the resident LRU. An
// admitting cache retains nothing, so it always misses.
func (c *Cache[V]) LookupStale(key Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	val, ok := c.stale.get(key)
	if ok {
		c.stats.StaleHits++
	}
	return val, ok
}

// Len returns the number of resident values.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident.order.Len()
}

// Keys returns the resident keys from most to least recently used.
// Primarily a testing and introspection aid.
func (c *Cache[V]) Keys() []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Key, 0, c.resident.order.Len())
	for el := c.resident.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[V]).key)
	}
	return out
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Len = c.resident.order.Len()
	st.Cap = c.capacity
	st.StaleLen = c.stale.order.Len()
	return st
}

// entry is one cached value with its key.
type entry[V any] struct {
	key Key
	val V
}

// tier is an LRU-ordered set of entries with a key index: the resident cache
// and the stale tier. Callers hold Cache.mu.
type tier[V any] struct {
	order *list.List // front = most recently used; values are *entry[V]
	index map[Key]*list.Element
}

func newTier[V any]() tier[V] {
	return tier[V]{order: list.New(), index: map[Key]*list.Element{}}
}

// get returns key's value and marks it most recently used.
func (t tier[V]) get(key Key) (V, bool) {
	if el, ok := t.index[key]; ok {
		t.order.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// put stores val as key's value and marks it most recently used.
func (t tier[V]) put(key Key, val V) {
	if el, ok := t.index[key]; ok {
		t.order.MoveToFront(el)
		el.Value.(*entry[V]).val = val
		return
	}
	t.index[key] = t.order.PushFront(&entry[V]{key: key, val: val})
}

// remove drops key, if present.
func (t tier[V]) remove(key Key) {
	if el, ok := t.index[key]; ok {
		t.order.Remove(el)
		delete(t.index, key)
	}
}

// oldest returns the least recently used entry of a non-empty tier.
func (t tier[V]) oldest() *entry[V] { return t.order.Back().Value.(*entry[V]) }
