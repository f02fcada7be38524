package pprcache

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

func entriesFor(seed int) []Entry {
	return []Entry{{Node: int32(seed), Score: 1}, {Node: int32(seed + 1), Score: 0.5}}
}

func mustGet(t *testing.T, c *Cache, key Key, seed int) ([]Entry, bool) {
	t.Helper()
	val, cached, err := c.Get(context.Background(), key, func(context.Context) ([]Entry, error) { return entriesFor(seed), nil })
	if err != nil {
		t.Fatal(err)
	}
	return val, cached
}

func TestGetCachesAndReportsStatus(t *testing.T) {
	c := New(8, 1)
	val, cached := mustGet(t, c, "a", 1)
	if cached {
		t.Error("first Get must report a compute, not a cache hit")
	}
	if len(val) != 2 || val[0].Node != 1 {
		t.Fatalf("unexpected value %v", val)
	}
	val2, cached := mustGet(t, c, "a", 99)
	if !cached {
		t.Error("second Get must be served from cache")
	}
	if val2[0].Node != 1 {
		t.Errorf("cached value recomputed: %v", val2)
	}
	if got, ok := c.Lookup("a"); !ok || got[0].Node != 1 {
		t.Errorf("Lookup(a) = %v, %v", got, ok)
	}
	if _, ok := c.Lookup("missing"); ok {
		t.Error("Lookup of absent key must miss")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Len != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / len 1", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(8, 1)
	boom := errors.New("boom")
	if _, _, err := c.Get(context.Background(), "a", func(context.Context) ([]Entry, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed compute cached; len = %d", c.Len())
	}
	// The key must be retryable.
	if _, cached := mustGet(t, c, "a", 7); cached {
		t.Error("retry after error must recompute")
	}
	if v, ok := c.Lookup("a"); !ok || v[0].Node != 7 {
		t.Errorf("retry result not cached: %v, %v", v, ok)
	}
}

// TestAdmissionKeepsHotKeys is the tinyLFU property: under a stream of
// one-off keys, frequently-touched residents must stay in the cache, and the
// one-off keys must be rejected rather than evicting them.
func TestAdmissionKeepsHotKeys(t *testing.T) {
	c := New(4, 1)
	hot := []Key{"h0", "h1", "h2", "h3"}
	// Make the hot set resident and frequent.
	for round := 0; round < 8; round++ {
		for i, k := range hot {
			mustGet(t, c, k, i)
		}
	}
	// A flood of cold one-off keys, each seen exactly once.
	for i := 0; i < 200; i++ {
		mustGet(t, c, Key(fmt.Sprintf("cold-%d", i)), 1000+i)
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
	c := New(2, 1)
	mustGet(t, c, "old0", 0)
	mustGet(t, c, "old1", 1)
	for i := 0; i < 20; i++ {
		c.Get(context.Background(), "riser", func(context.Context) ([]Entry, error) { return entriesFor(9), nil })
	}
	if _, ok := c.Lookup("riser"); !ok {
		t.Error("recurring key never admitted over idle residents")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(2, 1)
	// Touch each key enough that admission passes on frequency, then verify
	// the least-recently-used resident is the one displaced.
	for i := 0; i < 4; i++ {
		mustGet(t, c, "a", 0)
		mustGet(t, c, "b", 1)
	}
	for i := 0; i < 6; i++ {
		c.sketchTouchForTest("c")
	}
	mustGet(t, c, "a", 0) // refresh a → b is now LRU
	mustGet(t, c, "c", 2)
	if _, ok := c.Lookup("b"); ok {
		t.Error("LRU victim b survived admission of c")
	}
	if _, ok := c.Lookup("a"); !ok {
		t.Error("recently-used a was evicted instead of b")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Error("no eviction recorded")
	}
}

// sketchTouchForTest bumps a key's frequency without a Get, standing in for
// repeated misses in tests that need a precise admission setup.
func (c *Cache) sketchTouchForTest(key Key) {
	h := hashKey(key)
	s := c.shardFor(h)
	s.mu.Lock()
	s.sketch.touch(h)
	s.mu.Unlock()
}

func TestSingleflightSharesOneCompute(t *testing.T) {
	c := New(64, 4)
	var computes atomic.Int64
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([][]Entry, waiters)
	cachedFlags := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			val, cached, err := c.Get(context.Background(), "shared", func(context.Context) ([]Entry, error) {
				computes.Add(1)
				<-release
				return entriesFor(42), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], cachedFlags[i] = val, cached
		}(i)
	}
	// Let every goroutine reach the shard before releasing the leader: the
	// leader blocks in compute, and each waiter counts as shared once it
	// parks on the flight. Releasing earlier would let late goroutines find
	// the finished entry and count as hits instead.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Shared < waiters-1 {
		if time.Now().After(deadline) {
			close(release)
			wg.Wait()
			t.Fatalf("only %d of %d waiters joined the flight", c.Stats().Shared, waiters-1)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computes for one key, want 1", n)
	}
	leaders := 0
	for i := range results {
		if results[i][0].Node != 42 {
			t.Fatalf("waiter %d got %v", i, results[i])
		}
		if !cachedFlags[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d requests reported a compute, want exactly 1", leaders)
	}
	if st := c.Stats(); st.Shared != waiters-1 {
		t.Errorf("Shared = %d, want %d", st.Shared, waiters-1)
	}
}

func TestPanicDoesNotPoisonKey(t *testing.T) {
	c := New(8, 1)
	// The compute runs detached from any single requester, so a panic cannot
	// be re-raised on a caller's goroutine; it surfaces as an error instead.
	_, _, err := c.Get(context.Background(), "p", func(context.Context) ([]Entry, error) { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic must surface as an error, got %v", err)
	}
	// The key must not deadlock or stay poisoned.
	if _, cached := mustGet(t, c, "p", 5); cached {
		t.Error("post-panic Get must recompute")
	}
}

// TestCancelledWaiterDoesNotFailSiblings: a requester abandoning an in-flight
// push gets its own ctx error while the remaining waiter still receives the
// computed rows.
func TestCancelledWaiterDoesNotFailSiblings(t *testing.T) {
	c := New(8, 1)
	entered := make(chan struct{})
	release := make(chan struct{})
	compute := func(ctx context.Context) ([]Entry, error) {
		close(entered)
		<-release
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return entriesFor(42), nil
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Get(leaderCtx, "k", compute)
		leaderErr <- err
	}()
	<-entered
	siblingErr := make(chan error, 1)
	siblingVal := make(chan []Entry, 1)
	go func() {
		v, _, err := c.Get(context.Background(), "k", compute)
		siblingVal <- v
		siblingErr <- err
	}()
	for c.Stats().Shared == 0 {
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	select {
	case err := <-leaderErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter: want Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
	close(release)
	if err := <-siblingErr; err != nil {
		t.Fatalf("sibling must get the result, got %v", err)
	}
	if v := <-siblingVal; len(v) == 0 || v[0].Node != 42 {
		t.Fatalf("sibling value = %v", v)
	}
}

// TestAllWaitersGoneCancelsSolve: the detached compute context is cancelled
// once every requester has walked away, so an abandoned push can stop.
func TestAllWaitersGoneCancelsSolve(t *testing.T) {
	c := New(8, 1)
	entered := make(chan struct{})
	cancelled := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, "k", func(ctx context.Context) ([]Entry, error) {
			close(entered)
			<-ctx.Done()
			close(cancelled)
			return nil, ctx.Err()
		})
		errCh <- err
	}()
	<-entered
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("compute context never cancelled after the last waiter left")
	}
	// The key is immediately retryable.
	if _, cached := mustGet(t, c, "k", 3); cached {
		t.Error("retry after abandon must recompute")
	}
	if got := c.Stats().Abandoned; got != 1 {
		t.Errorf("Abandoned = %d, want 1", got)
	}
}

func TestNewNormalizesShape(t *testing.T) {
	cases := []struct {
		capacity, shards int
		wantShards       int
	}{
		{0, 0, DefaultShards},
		{100, 3, 4},  // rounded up to a power of two
		{2, 16, 2},   // shards capped at capacity
		{1024, 8, 8}, // already a power of two
		{-1, -1, DefaultShards},
	}
	for _, tc := range cases {
		c := New(tc.capacity, tc.shards)
		if len(c.shards) != tc.wantShards {
			t.Errorf("New(%d, %d): %d shards, want %d", tc.capacity, tc.shards, len(c.shards), tc.wantShards)
		}
		if st := c.Stats(); st.Cap < tc.capacity {
			t.Errorf("New(%d, %d): cap %d below requested capacity", tc.capacity, tc.shards, st.Cap)
		}
	}
}

func TestConcurrentMixedTraffic(t *testing.T) {
	// Race-detector stress: many goroutines hammering a small cache with
	// overlapping keys, lookups, and stats reads.
	c := New(32, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := Key(fmt.Sprintf("k%d", (w*7+i)%48))
				seed := i
				if _, _, err := c.Get(context.Background(), key, func(context.Context) ([]Entry, error) { return entriesFor(seed), nil }); err != nil {
					t.Error(err)
					return
				}
				if i%16 == 0 {
					c.Lookup(key)
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Errorf("len %d exceeds capacity", c.Len())
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
