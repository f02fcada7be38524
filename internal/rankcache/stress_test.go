package rankcache

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStressSingleflightNoEviction hammers a cache whose capacity covers the
// whole key space with many goroutines: single-flight deduplication must
// collapse every burst of concurrent misses into exactly one compute per
// distinct key, ever, and the counters must account for every request.
// (Run under -race in CI; the interleaved computes also exercise the
// inflight bookkeeping.)
func TestStressSingleflightNoEviction(t *testing.T) {
	const (
		keySpace   = 8
		goroutines = 32
		iters      = 300
	)
	c := NewLRU[[]float64](keySpace) // capacity == key space: nothing ever evicts
	var computes [keySpace]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				k := rng.Intn(keySpace)
				key := Key(fmt.Sprintf("stress|%d", k))
				val, _, err := c.Get(context.Background(), key, func(context.Context) ([]float64, error) {
					computes[k].Add(1)
					// Widen the race window so concurrent misses overlap.
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					return []float64{float64(k)}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(val) != 1 || val[0] != float64(k) {
					t.Errorf("key %d returned %v", k, val)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for k := 0; k < keySpace; k++ {
		if n := computes[k].Load(); n > 1 {
			t.Errorf("key %d computed %d times, want at most 1", k, n)
		}
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Errorf("evictions = %d with capacity == key space", st.Evictions)
	}
	if total := st.Hits + st.Misses + st.Shared; total != goroutines*iters {
		t.Errorf("hits+misses+shared = %d, want %d", total, goroutines*iters)
	}
	if st.Misses != uint64(c.Len()) {
		t.Errorf("misses = %d but %d resident entries", st.Misses, c.Len())
	}
}

// TestStressSingleflightWithEvictions shrinks the capacity far below the key
// space so the LRU churns constantly. A key may now be computed more than
// once (recompute after eviction is correct behavior), but two computes for
// the same key must never overlap in time — the inflight table, not
// residency, is what serializes them. Values must stay correct throughout.
func TestStressSingleflightWithEvictions(t *testing.T) {
	const (
		keySpace   = 16
		capacity   = 3
		goroutines = 24
		iters      = 200
	)
	c := NewLRU[[]float64](capacity)
	var inflight [keySpace]atomic.Int64
	var overlaps atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < iters; i++ {
				k := rng.Intn(keySpace)
				key := Key(fmt.Sprintf("evict|%d", k))
				val, _, err := c.Get(context.Background(), key, func(context.Context) ([]float64, error) {
					if inflight[k].Add(1) != 1 {
						overlaps.Add(1)
					}
					time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
					inflight[k].Add(-1)
					return []float64{float64(k)}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(val) != 1 || val[0] != float64(k) {
					t.Errorf("key %d returned %v", k, val)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d overlapping computes for one key (single-flight broken)", n)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions despite capacity %d < key space %d: %+v", capacity, keySpace, st)
	}
	if c.Len() > capacity {
		t.Errorf("resident %d > capacity %d", c.Len(), capacity)
	}
	if total := st.Hits + st.Misses + st.Shared; total != goroutines*iters {
		t.Errorf("hits+misses+shared = %d, want %d", total, goroutines*iters)
	}
}

// TestStressErrorsDoNotPoison mixes failing computes into the hammering:
// errors must propagate to exactly the requests that joined the failing
// flight, must not be cached, and must not wedge later Gets for the key.
func TestStressErrorsDoNotPoison(t *testing.T) {
	const (
		keySpace   = 4
		goroutines = 16
		iters      = 100
	)
	c := NewLRU[[]float64](keySpace)
	var flips [keySpace]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + g)))
			for i := 0; i < iters; i++ {
				k := rng.Intn(keySpace)
				key := Key(fmt.Sprintf("err|%d", k))
				val, _, err := c.Get(context.Background(), key, func(context.Context) ([]float64, error) {
					// Fail the first few computes of every key, then succeed.
					if flips[k].Add(1) <= 2 {
						return nil, fmt.Errorf("transient failure for %d", k)
					}
					return []float64{float64(k)}, nil
				})
				if err == nil && (len(val) != 1 || val[0] != float64(k)) {
					t.Errorf("key %d returned %v", k, val)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// After the dust settles every key must be computable.
	for k := 0; k < keySpace; k++ {
		key := Key(fmt.Sprintf("err|%d", k))
		val, _, err := c.Get(context.Background(), key, func(context.Context) ([]float64, error) {
			return []float64{float64(k)}, nil
		})
		if err != nil || val[0] != float64(k) {
			t.Errorf("key %d unusable after transient errors: %v %v", k, val, err)
		}
	}
}
