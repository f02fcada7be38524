package pprcache

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d2pr/internal/rankcache"
)

// These tests drive the cache exactly as the serving layer builds it for
// personalized rows: an admitting rankcache.Cache of []Entry.

type rowCache = rankcache.Cache[[]Entry]

func newRowCache(capacity int) *rowCache { return rankcache.NewAdmitting[[]Entry](capacity) }

func entriesFor(seed int) []Entry {
	return []Entry{{Node: int32(seed), Score: 1}, {Node: int32(seed + 1), Score: 0.5}}
}

func mustGet(t *testing.T, c *rowCache, key Key, seed int) ([]Entry, bool) {
	t.Helper()
	val, cached, err := c.Get(context.Background(), key, func(context.Context) ([]Entry, error) { return entriesFor(seed), nil })
	if err != nil {
		t.Fatal(err)
	}
	return val, cached
}

func TestGetCachesAndReportsStatus(t *testing.T) {
	c := newRowCache(8)
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
	c := newRowCache(8)
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

func TestLRUEvictionOrder(t *testing.T) {
	c := newRowCache(2)
	// Touch each key enough that admission passes on frequency, then verify
	// the least-recently-used resident is the one displaced.
	for i := 0; i < 4; i++ {
		mustGet(t, c, "a", 0)
		mustGet(t, c, "b", 1)
	}
	// A Lookup of an absent key counts as a use for admission, standing in
	// for repeated misses without computing anything.
	for i := 0; i < 6; i++ {
		c.Lookup("c")
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

func TestSingleflightSharesOneCompute(t *testing.T) {
	c := newRowCache(64)
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
	// Let every goroutine reach the cache before releasing the leader: the
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
	c := newRowCache(8)
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
	c := newRowCache(8)
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
	c := newRowCache(8)
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

// TestNewNormalizesShape: the row cache's only shape parameter is its
// capacity; a non-positive one falls back to the admitting default.
func TestNewNormalizesShape(t *testing.T) {
	cases := []struct {
		capacity, wantCap int
	}{
		{0, rankcache.DefaultAdmittingCapacity},
		{100, 100},
		{2, 2},
		{1024, 1024},
		{-1, rankcache.DefaultAdmittingCapacity},
	}
	for _, tc := range cases {
		if st := newRowCache(tc.capacity).Stats(); st.Cap != tc.wantCap {
			t.Errorf("capacity %d: cap %d, want %d", tc.capacity, st.Cap, tc.wantCap)
		}
	}
}
