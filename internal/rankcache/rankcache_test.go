package rankcache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func constant(v float64) ComputeFunc[[]float64] {
	return func(context.Context) ([]float64, error) { return []float64{v}, nil }
}

// get is the test shorthand for the common case: background context, cached
// flag ignored.
func get(c *Cache[[]float64], key Key, compute ComputeFunc[[]float64]) ([]float64, error) {
	v, _, err := c.Get(context.Background(), key, compute)
	return v, err
}

// newFunc is a constructor: NewLRU or NewAdmitting.
type newFunc func(capacity int) *Cache[[]float64]

// forEachPolicy runs test once per constructor. Single flight, cancellation,
// panics and errors share one code path whatever a full cache does with a
// new value, so their tests must pass under both policies.
func forEachPolicy(t *testing.T, test func(t *testing.T, newCache newFunc)) {
	for _, p := range []struct {
		name string
		new  newFunc
	}{
		{"lru", NewLRU[[]float64]},
		{"admitting", NewAdmitting[[]float64]},
	} {
		t.Run(p.name, func(t *testing.T) { test(t, p.new) })
	}
}

func TestNewKeyCanonical(t *testing.T) {
	a := NewKey("g", "d2pr", 0.5, 0, "alpha=0.85")
	b := NewKey("g", "d2pr", 0.5, 0, "alpha=0.85")
	if a != b {
		t.Errorf("identical configs → different keys: %q vs %q", a, b)
	}
	for _, other := range []Key{
		NewKey("h", "d2pr", 0.5, 0, "alpha=0.85"),
		NewKey("g", "pagerank", 0.5, 0, "alpha=0.85"),
		NewKey("g", "d2pr", 1.5, 0, "alpha=0.85"),
		NewKey("g", "d2pr", 0.5, 1, "alpha=0.85"),
		NewKey("g", "d2pr", 0.5, 0, "alpha=0.9"),
	} {
		if a == other {
			t.Errorf("distinct configs collide on %q", a)
		}
	}
}

func TestGetComputesOnceAndCaches(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newCache newFunc) {
		c := newCache(4)
		var calls int32
		compute := func(context.Context) ([]float64, error) {
			atomic.AddInt32(&calls, 1)
			return []float64{42}, nil
		}
		for i := 0; i < 5; i++ {
			v, cached, err := c.Get(context.Background(), "k", compute)
			if err != nil || v[0] != 42 {
				t.Fatalf("get: %v %v", v, err)
			}
			if cached != (i > 0) {
				t.Errorf("get %d: cached = %v", i, cached)
			}
		}
		if calls != 1 {
			t.Errorf("compute ran %d times, want 1", calls)
		}
		if v, ok := c.Lookup("k"); !ok || v[0] != 42 {
			t.Errorf("Lookup(k) = %v, %v", v, ok)
		}
		if _, ok := c.Lookup("missing"); ok {
			t.Error("Lookup of absent key must miss")
		}
		st := c.Stats()
		if st.Misses != 1 || st.Hits != 4 || st.Len != 1 {
			t.Errorf("stats = %+v, want 1 miss / 4 hits / len 1", st)
		}
	})
}

func TestLRUEvictionOrder(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		c := NewLRU[[]float64](3)
		for i := 1; i <= 3; i++ {
			get(c, Key(fmt.Sprintf("k%d", i)), constant(float64(i)))
		}
		// Touch k1 so k2 becomes the least recently used.
		if _, ok := c.Lookup("k1"); !ok {
			t.Fatal("k1 must be resident")
		}
		get(c, "k4", constant(4)) // evicts k2
		if _, ok := c.Lookup("k2"); ok {
			t.Error("k2 must have been evicted (LRU)")
		}
		for _, k := range []Key{"k1", "k3", "k4"} {
			if _, ok := c.Lookup(k); !ok {
				t.Errorf("%s must be resident", k)
			}
		}
		if ev := c.Stats().Evictions; ev != 1 {
			t.Errorf("evictions = %d, want 1", ev)
		}
		// Keys() reports MRU → LRU.
		keys := c.Keys()
		if len(keys) != 3 || keys[0] != "k4" {
			t.Errorf("keys = %v, want k4 first", keys)
		}
	})
	t.Run("admitting", func(t *testing.T) {
		// Touch each key enough that admission passes on frequency, then
		// verify the least-recently-used resident is the one displaced.
		c := NewAdmitting[[]float64](2)
		for i := 0; i < 4; i++ {
			get(c, "a", constant(0))
			get(c, "b", constant(1))
		}
		// A Lookup miss still counts as a use, standing in for repeated
		// misses.
		for i := 0; i < 6; i++ {
			c.Lookup("c")
		}
		get(c, "a", constant(0)) // refresh a → b is now LRU
		get(c, "c", constant(2))
		if _, ok := c.Lookup("b"); ok {
			t.Error("LRU victim b survived admission of c")
		}
		if _, ok := c.Lookup("a"); !ok {
			t.Error("recently-used a was evicted instead of b")
		}
		if st := c.Stats(); st.Evictions == 0 {
			t.Error("no eviction recorded")
		}
	})
}

func TestEvictedKeyRecomputes(t *testing.T) {
	c := NewLRU[[]float64](1)
	var calls int32
	compute := func(context.Context) ([]float64, error) {
		atomic.AddInt32(&calls, 1)
		return []float64{1}, nil
	}
	get(c, "a", compute)
	get(c, "b", constant(2)) // evicts a
	get(c, "a", compute)
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (recompute after eviction)", calls)
	}
}

// TestStaleTierServesEvicted: an evicted entry is demoted to the stale tier
// and stays retrievable via LookupStale until the key is refreshed or the
// stale tier itself overflows.
func TestStaleTierServesEvicted(t *testing.T) {
	c := NewLRU[[]float64](1)
	get(c, "a", constant(1))
	get(c, "b", constant(2)) // evicts a → stale tier
	if v, ok := c.LookupStale("a"); !ok || v[0] != 1 {
		t.Fatalf("evicted key not in stale tier: %v %v", v, ok)
	}
	if _, ok := c.LookupStale("b"); ok {
		t.Error("resident key must not be stale")
	}
	// A fresh recompute of "a" drops the stale copy.
	get(c, "a", constant(10))
	if _, ok := c.LookupStale("a"); ok {
		t.Error("fresh insert must remove the stale copy")
	}
	st := c.Stats()
	if st.StaleHits != 1 {
		t.Errorf("stale hits = %d, want 1", st.StaleHits)
	}
	// The stale tier is bounded at the cache capacity: churning many keys
	// through a capacity-1 cache leaves at most one stale entry.
	for i := 0; i < 8; i++ {
		get(c, Key(fmt.Sprintf("churn%d", i)), constant(float64(i)))
	}
	if st := c.Stats(); st.StaleLen > 1 {
		t.Errorf("stale tier grew past capacity: %+v", st)
	}
}

// TestPoliciesStayApart: each constructor keeps its own rule for a full
// cache. A flood of keys seen once evicts into an LRU cache's stale tier and
// is never rejected; an admitting cache rejects the flood instead, retains
// nothing, and its LookupStale always misses.
func TestPoliciesStayApart(t *testing.T) {
	const capacity, flood = 4, 64
	fill := func(c *Cache[[]float64]) {
		for i := 0; i < flood; i++ {
			get(c, Key(fmt.Sprintf("k%d", i)), constant(float64(i)))
		}
	}

	lru := NewLRU[[]float64](capacity)
	fill(lru)
	if st := lru.Stats(); st.Rejected != 0 || st.Evictions != flood-capacity || st.StaleLen != capacity {
		t.Errorf("lru stats = %+v, want 0 rejected, %d evictions, %d stale", st, flood-capacity, capacity)
	}
	// k60..k63 are resident; the last four evicted, k56..k59, are stale.
	if v, ok := lru.LookupStale("k59"); !ok || v[0] != 59 {
		t.Errorf("lru LookupStale(k59) = %v, %v; want the evicted value", v, ok)
	}

	adm := NewAdmitting[[]float64](capacity)
	fill(adm)
	st := adm.Stats()
	if st.Rejected == 0 || st.Rejected+st.Evictions != flood-capacity || st.StaleLen != 0 {
		t.Errorf("admitting stats = %+v, want rejections, rejected+evictions = %d, 0 stale", st, flood-capacity)
	}
	for i := 0; i < flood; i++ {
		if _, ok := adm.LookupStale(Key(fmt.Sprintf("k%d", i))); ok {
			t.Fatalf("admitting LookupStale(k%d) hit", i)
		}
	}
	if st := adm.Stats(); st.StaleHits != 0 {
		t.Errorf("admitting stale hits = %d, want 0", st.StaleHits)
	}
}

// TestSingleFlight: concurrent identical requests must share one compute.
func TestSingleFlight(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newCache newFunc) {
		c := newCache(4)
		var calls atomic.Int32
		release := make(chan struct{})
		var releaseOnce sync.Once
		releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
		compute := func(context.Context) ([]float64, error) {
			calls.Add(1)
			<-release // hold every concurrent caller in flight
			return []float64{7}, nil
		}

		const n = 32
		var wg sync.WaitGroup
		// Deferred in this order so a failed wait below still releases and
		// joins every requester.
		defer wg.Wait()
		defer releaseAll()
		results := make([][]float64, n)
		cached := make([]bool, n)
		wg.Add(n)
		for i := 0; i < n; i++ {
			go func(i int) {
				defer wg.Done()
				v, ok, err := c.Get(context.Background(), "hot", compute)
				if err != nil {
					t.Error(err)
				}
				results[i], cached[i] = v, ok
			}(i)
		}
		// Release the leader only once every other request has parked on
		// its flight; releasing earlier would let late requests find the
		// stored value and count as hits instead.
		waitForStat(t, c, func(st Stats) bool { return st.Shared == n-1 })
		releaseAll()
		wg.Wait()

		if got := calls.Load(); got != 1 {
			t.Errorf("compute ran %d times under concurrency, want 1", got)
		}
		leaders := 0
		for i := range results {
			if &results[i][0] != &results[0][0] {
				t.Fatal("waiters must share the leader's slice")
			}
			if !cached[i] {
				leaders++
			}
		}
		if leaders != 1 {
			t.Errorf("%d requests reported a compute, want exactly 1", leaders)
		}
		if st := c.Stats(); st.Misses != 1 || st.Shared != n-1 {
			t.Errorf("stats = %+v, want 1 miss and %d shared", st, n-1)
		}
	})
}

// TestCancelledWaiterDoesNotFailSiblings: one requester abandoning an
// in-flight solve gets its own ctx error, while the solve keeps running and
// delivers the result to the remaining waiters.
func TestCancelledWaiterDoesNotFailSiblings(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newCache newFunc) {
		c := newCache(4)
		entered := make(chan struct{})
		release := make(chan struct{})
		var sawCancel atomic.Bool
		compute := func(ctx context.Context) ([]float64, error) {
			close(entered)
			<-release
			if ctx.Err() != nil {
				sawCancel.Store(true)
				return nil, ctx.Err()
			}
			return []float64{7}, nil
		}

		leaderCtx, cancelLeader := context.WithCancel(context.Background())
		leaderErr := make(chan error, 1)
		go func() {
			_, _, err := c.Get(leaderCtx, "k", compute)
			leaderErr <- err
		}()
		<-entered

		// A second requester piggybacks with its own, never-cancelled context.
		siblingVal := make(chan []float64, 1)
		siblingErr := make(chan error, 1)
		go func() {
			v, _, err := c.Get(context.Background(), "k", compute)
			siblingVal <- v
			siblingErr <- err
		}()
		waitForStat(t, c, func(st Stats) bool { return st.Shared == 1 })

		// The leader walks away; its Get must fail with Canceled promptly...
		cancelLeader()
		select {
		case err := <-leaderErr:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled waiter: want Canceled, got %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled waiter never returned")
		}

		// ...while the solve is still pending for the sibling.
		close(release)
		if err := <-siblingErr; err != nil {
			t.Fatalf("sibling must get the result, got error %v", err)
		}
		if v := <-siblingVal; len(v) != 1 || v[0] != 7 {
			t.Fatalf("sibling value = %v", v)
		}
		if sawCancel.Load() {
			t.Error("solve context was cancelled while a waiter remained")
		}
		// The flight itself was never abandoned — the sibling stayed on it.
		if st := c.Stats(); st.Abandoned != 0 {
			t.Errorf("abandoned = %d, want 0", st.Abandoned)
		}
		// The finished result is cached for future requests.
		if v, ok := c.Lookup("k"); !ok || v[0] != 7 {
			t.Errorf("result not cached after waiter churn: %v %v", v, ok)
		}
	})
}

// TestAllWaitersGoneCancelsSolve: once every requester has abandoned the
// flight, the detached solve context is cancelled so the solver can stop.
func TestAllWaitersGoneCancelsSolve(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newCache newFunc) {
		c := newCache(4)
		entered := make(chan struct{})
		solveCancelled := make(chan struct{})
		compute := func(ctx context.Context) ([]float64, error) {
			close(entered)
			<-ctx.Done()
			close(solveCancelled)
			return nil, ctx.Err()
		}
		ctx, cancel := context.WithCancel(context.Background())
		errCh := make(chan error, 1)
		go func() {
			_, _, err := c.Get(ctx, "k", compute)
			errCh <- err
		}()
		<-entered
		cancel()
		if err := <-errCh; !errors.Is(err, context.Canceled) {
			t.Fatalf("want Canceled, got %v", err)
		}
		select {
		case <-solveCancelled:
		case <-time.After(5 * time.Second):
			t.Fatal("solve context never cancelled after the last waiter left")
		}
		if st := c.Stats(); st.Abandoned != 1 {
			t.Errorf("abandoned flights = %d, want 1", st.Abandoned)
		}
		// The key is immediately retryable.
		if v, err := get(c, "k", constant(3)); err != nil || v[0] != 3 {
			t.Fatalf("retry after abandon: %v %v", v, err)
		}
	})
}

func TestErrorsNotCached(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newCache newFunc) {
		c := newCache(4)
		boom := errors.New("boom")
		var calls int32
		failing := func(context.Context) ([]float64, error) {
			atomic.AddInt32(&calls, 1)
			return nil, boom
		}
		if _, err := get(c, "k", failing); !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
		if _, err := get(c, "k", failing); !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
		if calls != 2 {
			t.Errorf("failed compute must retry, ran %d times", calls)
		}
		if c.Len() != 0 {
			t.Errorf("errors must not occupy cache slots, len = %d", c.Len())
		}
		// A successful retry is cached.
		if v, err := get(c, "k", constant(7)); err != nil || v[0] != 7 {
			t.Fatalf("retry after error: %v %v", v, err)
		}
		if v, ok := c.Lookup("k"); !ok || v[0] != 7 {
			t.Errorf("retry result not cached: %v, %v", v, ok)
		}
	})
}

// TestPanicDoesNotPoisonKey: a panicking compute must surface as an error to
// every waiter, fire the SetOnPanic hook, and leave the key retryable — not
// park every future Get on a dead in-flight entry. (The compute runs detached
// from any single requester, so the panic cannot be re-raised on a caller's
// goroutine; it is delivered as an error instead.)
func TestPanicDoesNotPoisonKey(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newCache newFunc) {
		c := newCache(4)
		var hooked atomic.Int32
		c.SetOnPanic(func(any) { hooked.Add(1) })
		_, err := get(c, "k", func(context.Context) ([]float64, error) { panic("kaboom") })
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("panic must surface as an error, got %v", err)
		}
		if n := hooked.Load(); n != 1 {
			t.Errorf("panic hook fired %d times, want 1", n)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			v, err := get(c, "k", constant(1))
			if err != nil || v[0] != 1 {
				t.Errorf("retry after panic: %v %v", v, err)
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Get blocked on a poisoned key")
		}
		if c.Len() != 1 {
			t.Errorf("len = %d, want 1", c.Len())
		}
	})
}

// TestConcurrentMixedTraffic is a race-detector stress: many goroutines
// hammering a small cache with overlapping keys, lookups, and stats reads.
func TestConcurrentMixedTraffic(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newCache newFunc) {
		const capacity = 32
		c := newCache(capacity)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					key := Key(fmt.Sprintf("k%d", (w*7+i)%48))
					if _, err := get(c, key, constant(float64(i))); err != nil {
						t.Error(err)
						return
					}
					if i%16 == 0 {
						c.Lookup(key)
						c.LookupStale(key)
						c.Stats()
					}
				}
			}(w)
		}
		wg.Wait()
		if st := c.Stats(); st.Len > capacity || st.StaleLen > capacity {
			t.Errorf("stats %+v exceed capacity %d", st, capacity)
		}
	})
}

// TestAdmissionKeepsHotKeys is the tinyLFU property: under a stream of
// one-off keys, frequently-touched residents must stay in the cache, and the
// one-off keys must be rejected rather than evicting them.
func TestAdmissionKeepsHotKeys(t *testing.T) {
	c := NewAdmitting[[]float64](4)
	hot := []Key{"h0", "h1", "h2", "h3"}
	// Make the hot set resident and frequent.
	for round := 0; round < 8; round++ {
		for i, k := range hot {
			get(c, k, constant(float64(i)))
		}
	}
	// A flood of cold one-off keys, each seen exactly once.
	for i := 0; i < 200; i++ {
		get(c, Key(fmt.Sprintf("cold-%d", i)), constant(float64(1000+i)))
	}
	for _, k := range hot {
		if _, ok := c.Lookup(k); !ok {
			t.Errorf("hot key %q evicted by one-off traffic", k)
		}
	}
	st := c.Stats()
	if st.Rejected == 0 {
		t.Error("admission never rejected a one-off key")
	}
	if st.Len > st.Cap {
		t.Errorf("len %d exceeds cap %d", st.Len, st.Cap)
	}
}

// TestNewlyHotKeyEarnsAdmission: a key that keeps recurring must eventually
// beat a resident that is never touched again.
func TestNewlyHotKeyEarnsAdmission(t *testing.T) {
	c := NewAdmitting[[]float64](2)
	get(c, "old0", constant(0))
	get(c, "old1", constant(1))
	for i := 0; i < 20; i++ {
		get(c, "riser", constant(9))
	}
	if _, ok := c.Lookup("riser"); !ok {
		t.Error("recurring key never admitted over idle residents")
	}
}

func TestSketchEstimateAndAging(t *testing.T) {
	s := newCMSketch(8)
	h := hashKey("hot")
	for i := 0; i < 10; i++ {
		s.touch(h)
	}
	if est := s.estimate(h); est < 10 {
		t.Errorf("estimate %d after 10 touches, want ≥ 10", est)
	}
	// Saturation at 15.
	for i := 0; i < 100; i++ {
		s.touch(h)
	}
	if est := s.estimate(h); est != 15 {
		t.Errorf("estimate %d, want saturation at 15", est)
	}
	before := s.estimate(h)
	s.age()
	if after := s.estimate(h); after != before/2 {
		t.Errorf("aging: %d → %d, want halved", before, after)
	}
	if cold := s.estimate(hashKey("never-seen-key-xyz")); cold > 2 {
		t.Errorf("untouched key estimates %d, want ~0", cold)
	}
}

// TestDefaultCapacity: a non-positive capacity selects the constructor's
// default, and any other capacity is kept as given.
func TestDefaultCapacity(t *testing.T) {
	for _, tc := range []struct {
		name     string
		new      newFunc
		capacity int
		want     int
	}{
		{"lru/zero", NewLRU[[]float64], 0, DefaultCapacity},
		{"lru/negative", NewLRU[[]float64], -1, DefaultCapacity},
		{"lru/given", NewLRU[[]float64], 100, 100},
		{"admitting/zero", NewAdmitting[[]float64], 0, DefaultAdmittingCapacity},
		{"admitting/negative", NewAdmitting[[]float64], -1, DefaultAdmittingCapacity},
		{"admitting/given", NewAdmitting[[]float64], 100, 100},
	} {
		if got := tc.new(tc.capacity).Stats().Cap; got != tc.want {
			t.Errorf("%s: cap = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func waitForStat(t *testing.T, c *Cache[[]float64], cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(c.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}
