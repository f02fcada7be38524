package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"d2pr/internal/registry"
	"d2pr/internal/server"
)

// recorder is the client's response writer: the benchmark calls
// Handler().ServeHTTP directly, with no listener in between.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}

// env is one set-up server: the registry, the server over it, and the
// workload's graphs, materialized.
type env struct {
	reg   *registry.Registry
	srv   *server.Server
	h     http.Handler
	names []string
	snaps map[string]*registry.Snapshot
	// materializeMs is the first Registry.Get of each graph, in names order.
	materializeMs []float64
	rec           recorder
}

// newEnv starts the server over reg with the d2pr-server defaults (request
// logging off), then materializes every graph and builds its engine, as the
// first requests would.
func newEnv(reg *registry.Registry) (*env, error) {
	srv, err := server.NewMulti(reg, server.Config{})
	if err != nil {
		return nil, err
	}
	e := &env{reg: reg, srv: srv, h: srv.Handler(), names: reg.Names(),
		snaps: map[string]*registry.Snapshot{}, rec: recorder{hdr: http.Header{}}}
	for _, name := range e.names {
		start := time.Now()
		snap, err := reg.Get(name)
		if err != nil {
			_ = e.close()
			return nil, err
		}
		e.materializeMs = append(e.materializeMs, ms(time.Since(start)))
		snap.Engine()
		e.snaps[name] = snap
	}
	return e, nil
}

// close drains the server's job subsystem.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return e.srv.Close(ctx)
}

// serve sends one request through the handler and returns the status, the
// body (valid until the next call) and the time ServeHTTP took. It reuses
// one response writer, so only one goroutine may call it.
func (e *env) serve(req *http.Request) (int, []byte, time.Duration) {
	clear(e.rec.hdr)
	e.rec.status = 0
	e.rec.body.Reset()
	start := time.Now()
	e.h.ServeHTTP(&e.rec, req)
	return e.rec.status, e.rec.body.Bytes(), time.Since(start)
}

// get sends a GET whose answer must be 200 and decodes it into v. It is
// safe for concurrent use.
func (e *env) get(target string, v any) error {
	rec := &recorder{hdr: http.Header{}}
	e.h.ServeHTTP(rec, newRequest(http.MethodGet, target, nil))
	status, body := rec.status, rec.body.Bytes()
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", target, status, bytes.TrimSpace(body))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}

func newRequest(method, target string, body []byte) *http.Request {
	req, err := http.NewRequest(method, target, bytes.NewReader(body))
	if err != nil {
		panic(err) // targets are built by the benchmark itself
	}
	return req
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// samples holds per-request latencies, with each request's kind, outside
// the Go heap (an anonymous mapping), so that live_heap_mb counts the
// server's memory and not the benchmark's bookkeeping. Capacity is fixed at
// creation.
type samples struct {
	mem []byte
	v   []sample
}

type sample struct {
	kind int
	ms   float64
}

func newSamples(n int) (*samples, error) {
	n = max(n, 1)
	size := int(unsafe.Sizeof(sample{}))
	mem, err := syscall.Mmap(-1, 0, n*size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("latency buffer: %w", err)
	}
	return &samples{mem: mem, v: unsafe.Slice((*sample)(unsafe.Pointer(&mem[0])), n)[:0]}, nil
}

func (s *samples) add(kind int, ms float64) {
	if len(s.v) < cap(s.v) {
		s.v = append(s.v, sample{kind, ms})
	}
}

func (s *samples) free() { _ = syscall.Munmap(s.mem) }

// kindMedian is latency_p50_ms: each request kind's median latency,
// averaged over the kinds with their request counts as weights. Kinds
// differ in cost by up to two and a half times (on large-solve, a solve at
// p = 2.5 against one at p = −3.5), so the median of all requests pooled
// falls between two kinds, and noise that reorders a few requests near it
// moves it by the gap between them; one kind's median moves only with that
// kind's own noise. xs is sorted in place.
func kindMedian(xs []sample) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.SortFunc(xs, func(a, b sample) int {
		return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.ms, b.ms))
	})
	var sum float64
	for i := 0; i < len(xs); {
		j := i
		for j < len(xs) && xs[j].kind == xs[i].kind {
			j++
		}
		n := j - i
		med := xs[i+n/2].ms
		if n%2 == 0 {
			med = (xs[i+n/2-1].ms + med) / 2
		}
		sum += float64(n) * med
		i = j
	}
	return sum / float64(len(xs))
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 0.5) }

// liveHeapMB forces two collections and returns the heap the second one
// found live, in MB. The first moves pooled scratch (sync.Pool) to the
// pools' victim caches, where it survives exactly one more cycle, so a
// single collection would count whichever buffers the pools happened to
// hold.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// objectSamples is reused so that reading the counter allocates nothing.
var objectSamples = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}

// heapObjects returns the number of heap objects allocated so far, tiny
// allocations included.
func heapObjects() uint64 {
	metrics.Read(objectSamples)
	return objectSamples[0].Value.Uint64() + objectSamples[1].Value.Uint64()
}
