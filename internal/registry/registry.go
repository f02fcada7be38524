// Package registry holds a named collection of graphs for the serving layer.
// Entries are registered cheaply (a file path, a synthetic-dataset name, or
// an already-built graph) and materialized lazily on first access; loading is
// concurrency-safe and single-flight, so a server can register a whole
// directory of graphs at startup without paying for any of them until a
// request arrives.
//
// Materialization is epoch-versioned and fault-tolerant. Each entry holds an
// atomically swappable *Snapshot (epoch counter, content checksum, loaded-at
// timestamp): Reload materializes a shadow snapshot off the serving path and
// swaps it in atomically, while in-flight requests keep the snapshot (and
// therefore the engine and cache epoch) they already pinned. Failed loads run
// through a lifecycle state machine (internal/lifecycle): transient failures
// degrade the entry and self-heal via capped, jittered exponential backoff on
// later accesses; permanent failures (corrupt input) quarantine it until a
// manual reload re-arms it. An entry that ever loaded successfully keeps
// serving its last good snapshot through failed reloads — graceful
// degradation, never a terminal error.
//
// Sources:
//
//   - AddGraph: an in-memory *graph.Graph, available immediately.
//   - AddFile:  an edge-list file (plus optional significance file), parsed
//     on first access.
//   - AddDataset: one of the paper's eight synthetic data graphs, generated
//     on first access.
//   - LoadDir:  registers every edge-list file in a directory.
package registry

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"d2pr/internal/core"
	"d2pr/internal/dataset"
	"d2pr/internal/faultinject"
	"d2pr/internal/graph"
	"d2pr/internal/lifecycle"
)

// Snapshot is one materialized version of a registry entry: an immutable
// graph plus its optional per-node significance vector (nil when the source
// has none). A request that resolved a Snapshot keeps using it — graph,
// engine, and cache epoch — even if the entry is reloaded mid-flight; the
// swap only redirects future resolutions.
type Snapshot struct {
	Name         string
	Source       string // human-readable provenance, e.g. "file:web.tsv"
	Graph        *graph.Graph
	Significance []float64

	// Epoch counts successful materializations of the entry, starting at 1.
	// Cache keys derived from a snapshot include it, so scores computed
	// against a replaced graph are never served after a swap.
	Epoch uint64
	// Checksum fingerprints the source bytes ("fnv64a:<hex>" for file-backed
	// entries, "" for memory and generated sources).
	Checksum string
	// LoadedAt is when this snapshot's materialization finished.
	LoadedAt time.Time

	engineMu sync.Mutex
	engine   *core.Engine
}

// Engine returns the solver engine for the snapshot's graph (cached pull
// topology, worker pool, scratch buffers — see core.Engine), built lazily on
// first use. The snapshot owns the engine (core.NewEngine, not the process-
// wide core.EngineFor cache), so every serving path over this graph —
// synchronous ranks, batch sweeps, background jobs, cache warming — shares
// one topology and never re-transposes, while a reload's new snapshot builds
// its own engine and the old one dies with the old epoch.
func (s *Snapshot) Engine() *core.Engine {
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	if s.engine == nil {
		// Fire before the build so an injected panic leaves engine nil and
		// the next caller retries; the error return is meaningless here
		// (building cannot fail), only Delay and Panic faults apply.
		_ = faultinject.Fire(faultinject.PointEngineBuild, s.Name)
		s.engine = core.NewEngine(s.Graph)
	}
	return s.engine
}

// EngineIfBuilt returns the snapshot's engine if some solve has already built
// it, nil otherwise. Read-only surfaces (/v1/{graph}/info, /metrics) use this
// so reporting on a graph nobody has ranked yet never triggers the O(arcs)
// engine build.
func (s *Snapshot) EngineIfBuilt() *core.Engine {
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	return s.engine
}

// loaded is one load attempt's successful outcome.
type loaded struct {
	g        *graph.Graph
	sig      []float64
	checksum string
}

// attempt is one in-flight materialization. Joiners (concurrent Gets and
// coalescing Reloads) park on done; snap/err are valid once it closes.
type attempt struct {
	done chan struct{}
	snap *Snapshot
	err  error
}

// entry is one registered graph: a load function, the current good snapshot
// (atomic, nil until the first success), and the lifecycle machine that
// tracks load health. mu serializes materialization attempts; cur is read
// lock-free on the serving path.
type entry struct {
	name   string
	source string
	load   func() (loaded, error)

	lc *lifecycle.Machine

	mu        sync.Mutex
	inflight  *attempt
	lastEpoch uint64
	cur       atomic.Pointer[Snapshot]
}

// status builds the entry's Status (see Statuses).
func (e *entry) status() Status {
	info := e.lc.Info()
	st := Status{
		Name:      e.name,
		Source:    e.source,
		State:     info.State,
		Retries:   info.Failures,
		Error:     info.Error,
		NextRetry: info.NextRetry,
	}
	if s := e.cur.Load(); s != nil {
		st.Loaded = true
		st.Nodes = s.Graph.NumNodes()
		st.Edges = s.Graph.NumEdges()
		st.Epoch = s.Epoch
		st.Checksum = s.Checksum
		st.LoadedAt = s.LoadedAt
	}
	return st
}

// Options tunes a Registry beyond the zero-config default.
type Options struct {
	// Backoff is the retry/quarantine policy applied to every entry's
	// failed loads. The zero value takes lifecycle's defaults (100ms base
	// doubling to 30s, quarantine after 5 consecutive failures).
	Backoff lifecycle.Config
}

// Registry is a concurrency-safe named-graph collection. The zero value is
// not usable; call New or NewWith.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
	opts    Options
}

// New returns an empty registry with default lifecycle policy.
func New() *Registry { return NewWith(Options{}) }

// NewWith returns an empty registry with opts' lifecycle policy.
func NewWith(opts Options) *Registry {
	return &Registry{entries: map[string]*entry{}, opts: opts}
}

// ErrUnknownGraph is wrapped by Get for names that were never registered.
var ErrUnknownGraph = errors.New("registry: unknown graph")

// StateError reports a Get against an entry that has no servable snapshot:
// its first load has failed and the lifecycle machine is holding it degraded
// (retry scheduled) or quarantined (manual reload required). The serving
// layer distinguishes it from ErrUnknownGraph: the graph exists, it is
// sick — 503 with the state in the body, not 404.
type StateError struct {
	Name  string
	State lifecycle.State
	// RetryAt is when the next automatic retry becomes due (degraded only).
	RetryAt time.Time
	Err     error
}

func (e *StateError) Error() string {
	return fmt.Sprintf("registry: graph %q is %s: %v", e.Name, e.State, e.Err)
}

func (e *StateError) Unwrap() error { return e.Err }

// newEntry builds an entry with the registry's lifecycle policy.
func (r *Registry) newEntry(name, source string, load func() (loaded, error)) *entry {
	return &entry{name: name, source: source, load: load, lc: lifecycle.NewMachine(r.opts.Backoff)}
}

func (r *Registry) add(e *entry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.name]; dup {
		return fmt.Errorf("registry: duplicate graph name %q", e.name)
	}
	r.entries[e.name] = e
	return nil
}

func (r *Registry) lookup(name string) (*entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// AddGraph registers an already-built graph under name. significance may be
// nil.
func (r *Registry) AddGraph(name string, g *graph.Graph, significance []float64) error {
	if g == nil || g.NumNodes() == 0 {
		return fmt.Errorf("registry: graph %q is empty", name)
	}
	if significance != nil && len(significance) != g.NumNodes() {
		return fmt.Errorf("registry: %s: %d significances for %d nodes", name, len(significance), g.NumNodes())
	}
	return r.add(r.newEntry(name, "memory", func() (loaded, error) {
		return loaded{g: g, sig: significance}, nil
	}))
}

// AddFile registers an edge-list file to be parsed on first access. sigPath
// is an optional per-node significance file ("" for none). weighted selects
// whether a third weight column is required.
func (r *Registry) AddFile(name, path string, kind graph.Kind, weighted bool, sigPath string) error {
	return r.add(r.newEntry(name, "file:"+path, func() (loaded, error) {
		return loadEdgeListFile(path, kind, weighted, sigPath)
	}))
}

// AddDataset registers one of the paper's synthetic data graphs (see
// dataset.GraphNames) to be generated on first access. The dataset's
// significance vector rides along, enabling /v1/{graph}/correlate.
// Unknown names fail here, not at first request.
func (r *Registry) AddDataset(name string, cfg dataset.Config) error {
	if !slices.Contains(dataset.GraphNames(), name) {
		return fmt.Errorf("registry: unknown dataset graph %q (want one of %v)", name, dataset.GraphNames())
	}
	return r.add(r.newEntry(name, "dataset:"+name, func() (loaded, error) {
		d, err := dataset.GraphByName(cfg, name)
		if err != nil {
			// Generation is deterministic in cfg: a failure now fails
			// identically forever, so retrying it is pointless.
			return loaded{}, lifecycle.Permanent(err)
		}
		return loaded{g: d.Weighted, sig: d.Significance}, nil
	}))
}

// AddAllDatasets registers all eight paper graphs under their Table-3 names.
func (r *Registry) AddAllDatasets(cfg dataset.Config) error {
	for _, name := range dataset.GraphNames() {
		if err := r.AddDataset(name, cfg); err != nil {
			return err
		}
	}
	return nil
}

// edgeListExts are the file extensions LoadDir treats as edge lists.
var edgeListExts = map[string]bool{".tsv": true, ".txt": true, ".edges": true}

// LoadDir registers every edge-list file (*.tsv, *.txt, *.edges) directly
// inside dir. The graph name is the file base name without extension; a
// sibling "<name>.sig" file, when present, is read as the significance
// vector. Whether a file is weighted is sniffed from its first data line
// (three or more columns → weighted); a ".directed" infix in the name (e.g.
// "web.directed.tsv" → graph "web") marks the edge list as directed.
//
// One unreadable file does not abort the rest of the directory: the file is
// still registered (sniffing deferred to load time, so a transient read
// failure self-heals), its read error is pre-recorded on the entry's
// lifecycle machine — Statuses reports it degraded — and it is excluded from
// the returned count, which covers only cleanly registered graphs.
func (r *Registry) LoadDir(dir string) (int, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("registry: %w", err)
	}
	n := 0
	for _, de := range des {
		if de.IsDir() || !edgeListExts[filepath.Ext(de.Name())] {
			continue
		}
		path := filepath.Join(dir, de.Name())
		name := strings.TrimSuffix(de.Name(), filepath.Ext(de.Name()))
		kind := graph.Undirected
		if strings.HasSuffix(name, ".directed") {
			kind = graph.Directed
			name = strings.TrimSuffix(name, ".directed")
		}
		sigPath := filepath.Join(dir, name+".sig")
		if _, err := os.Stat(sigPath); err != nil {
			sigPath = ""
		}
		weighted, sniffErr := sniffWeighted(path)
		if sniffErr != nil {
			// Register with the sniff deferred into the load path: if the
			// file becomes readable the entry heals on its own schedule.
			e := r.newEntry(name, "file:"+path, func() (loaded, error) {
				w, err := sniffWeighted(path)
				if err != nil {
					return loaded{}, err
				}
				return loadEdgeListFile(path, kind, w, sigPath)
			})
			e.lc.Fail(fmt.Errorf("registry: %s: %w", path, sniffErr))
			if err := r.add(e); err != nil {
				return n, err
			}
			continue
		}
		if err := r.AddFile(name, path, kind, weighted, sigPath); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Names returns the registered graph names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Has reports whether name is registered, without forcing a load.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.entries[name]
	return ok
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Get materializes and returns the named graph's current snapshot. The happy
// path — the entry has a good snapshot — is one lock-free atomic load, and
// stays servable regardless of later reload failures. Concurrent Gets for an
// unmaterialized entry share one load. A failed load is not sticky: Gets
// inside the backoff window fail fast with a *StateError (degraded), the
// first Get past it retries, and a quarantined entry keeps failing fast
// until a manual Reload re-arms it.
func (r *Registry) Get(name string) (*Snapshot, error) {
	return r.GetContext(context.Background(), name)
}

// SnapshotIfLoaded returns the entry's current snapshot without triggering a
// load — nil when the name is unknown or the graph has never materialized.
// One lock-free atomic read; the observability surfaces use it so reporting
// never competes with serving.
func (r *Registry) SnapshotIfLoaded(name string) *Snapshot {
	e, ok := r.lookup(name)
	if !ok {
		return nil
	}
	return e.cur.Load()
}

// GetContext is Get with a context bounding the wait on an in-flight load
// led by another caller (it does not interrupt the load itself).
func (r *Registry) GetContext(ctx context.Context, name string) (*Snapshot, error) {
	e, ok := r.lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownGraph, name)
	}
	if s := e.cur.Load(); s != nil {
		return s, nil
	}
	for {
		e.mu.Lock()
		if s := e.cur.Load(); s != nil {
			e.mu.Unlock()
			return s, nil
		}
		if a := e.inflight; a != nil {
			e.mu.Unlock()
			select {
			case <-a.done:
				if a.err == nil {
					return a.snap, nil
				}
				// The attempt we joined failed; loop to report the entry's
				// resulting state (or lead a retry if the backoff allows).
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		switch st := e.lc.State(); st {
		case lifecycle.StateQuarantined:
			serr := &StateError{Name: e.name, State: st, Err: e.lc.LastErr()}
			e.mu.Unlock()
			return nil, serr
		case lifecycle.StateDegraded:
			if at := e.lc.RetryAt(); time.Now().Before(at) {
				serr := &StateError{Name: e.name, State: st, RetryAt: at, Err: e.lc.LastErr()}
				e.mu.Unlock()
				return nil, serr
			}
		}
		// First attempt, or a degraded entry past its backoff: lead a load.
		a := &attempt{done: make(chan struct{})}
		e.inflight = a
		e.mu.Unlock()
		r.materialize(e, a)
		if a.err != nil {
			return nil, &StateError{Name: e.name, State: e.lc.State(), RetryAt: e.lc.RetryAt(), Err: a.err}
		}
		return a.snap, nil
	}
}

// materialize runs one load attempt to completion and publishes the outcome:
// on success the shadow snapshot is built off the serving path and swapped in
// with the next epoch; on failure the lifecycle machine decides degraded vs.
// quarantined and any existing snapshot keeps serving. The loader runs
// without locks held; a panicking loader is converted to a permanent failure
// rather than wedging the in-flight attempt (and every joiner parked on it).
func (r *Registry) materialize(e *entry, a *attempt) {
	var res loaded
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = lifecycle.Permanent(fmt.Errorf("loader panicked: %v", p))
			}
		}()
		if err := faultinject.Fire(faultinject.PointRegistryLoad, e.name); err != nil {
			return err
		}
		res, err = e.load()
		return err
	}()
	if err == nil && res.sig != nil && len(res.sig) != res.g.NumNodes() {
		err = lifecycle.Permanent(fmt.Errorf("%d significances for %d nodes", len(res.sig), res.g.NumNodes()))
	}
	e.mu.Lock()
	if err != nil {
		a.err = fmt.Errorf("registry: load %s (%s): %w", e.name, e.source, err)
		e.lc.Fail(a.err)
	} else {
		e.lastEpoch++
		a.snap = &Snapshot{
			Name: e.name, Source: e.source, Graph: res.g, Significance: res.sig,
			Epoch: e.lastEpoch, Checksum: res.checksum, LoadedAt: time.Now(),
		}
		e.cur.Store(a.snap)
		e.lc.Succeed()
	}
	e.inflight = nil
	e.mu.Unlock()
	close(a.done)
}

// Reload forces a fresh materialization of the named entry — the manual,
// operator-facing path behind POST /v1/graphs/{graph}/reload. The shadow
// load runs off the serving path: requests keep resolving the old snapshot
// until the atomic swap, and keep it if the load fails. Reloading a
// quarantined (or degraded) entry re-arms its lifecycle with a fresh retry
// budget. A reload arriving while another materialization is in flight
// coalesces onto it instead of stacking a second load. Returns the entry's
// post-attempt status alongside the attempt's error, so callers surface both.
func (r *Registry) Reload(name string) (Status, error) {
	return r.ReloadContext(context.Background(), name)
}

// ReloadContext is Reload with a context bounding the wait on an attempt it
// coalesces onto.
func (r *Registry) ReloadContext(ctx context.Context, name string) (Status, error) {
	e, ok := r.lookup(name)
	if !ok {
		return Status{}, fmt.Errorf("%w %q", ErrUnknownGraph, name)
	}
	e.mu.Lock()
	if a := e.inflight; a != nil {
		e.mu.Unlock()
		select {
		case <-a.done:
			return e.status(), a.err
		case <-ctx.Done():
			return e.status(), ctx.Err()
		}
	}
	e.lc.Rearm()
	a := &attempt{done: make(chan struct{})}
	e.inflight = a
	e.mu.Unlock()
	r.materialize(e, a)
	return e.status(), a.err
}

// TryReload is the periodic auto-reload policy (the -reload-interval loop):
// it reloads only entries that are already materialized (laziness preserved —
// a graph nobody asked for is not loaded just to refresh it), not quarantined
// (quarantine is an operator decision that a timer must not override), and
// not inside a failure-backoff window. It never re-arms the lifecycle, so
// repeated auto-reload failures still march an entry toward quarantine.
// The second return reports whether a reload was actually attempted.
func (r *Registry) TryReload(name string) (Status, bool, error) {
	e, ok := r.lookup(name)
	if !ok {
		return Status{}, false, fmt.Errorf("%w %q", ErrUnknownGraph, name)
	}
	e.mu.Lock()
	skip := e.cur.Load() == nil || e.inflight != nil
	if !skip {
		switch e.lc.State() {
		case lifecycle.StateQuarantined:
			skip = true
		case lifecycle.StateDegraded:
			skip = time.Now().Before(e.lc.RetryAt())
		}
	}
	if skip {
		st := e.status()
		e.mu.Unlock()
		return st, false, nil
	}
	a := &attempt{done: make(chan struct{})}
	e.inflight = a
	e.mu.Unlock()
	r.materialize(e, a)
	return e.status(), true, a.err
}

// Status describes one registry entry without forcing a load.
type Status struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Loaded bool   `json:"loaded"`
	// State is the entry's lifecycle state: loading (never materialized, or
	// re-armed), ready, degraded (last load failed, retry scheduled), or
	// quarantined (permanent failure or retries exhausted; manual reload
	// required). A degraded or quarantined entry with Loaded still true keeps
	// serving its last good snapshot.
	State lifecycle.State `json:"state"`
	// Error is the most recent load failure, "" after a success.
	Error string `json:"error,omitempty"`
	// Retries counts consecutive failed load attempts since the last success.
	Retries int `json:"retries,omitempty"`
	// NextRetry is when the scheduled backoff retry becomes due (degraded
	// only).
	NextRetry time.Time `json:"next_retry,omitzero"`
	// Nodes and Edges are only set once the entry is loaded.
	Nodes int `json:"nodes,omitempty"`
	Edges int `json:"edges,omitempty"`
	// Epoch, Checksum, and LoadedAt describe the current snapshot (see
	// Snapshot); zero/empty until the entry is loaded.
	Epoch    uint64    `json:"epoch,omitempty"`
	Checksum string    `json:"checksum,omitempty"`
	LoadedAt time.Time `json:"loaded_at,omitzero"`
}

// Statuses reports every entry's name, provenance, and load/lifecycle state,
// sorted by name. It never triggers loads — the serving layer uses it for
// the graph listing and readiness endpoints.
func (r *Registry) Statuses() []Status {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	out := make([]Status, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.status())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Status returns one entry's status without forcing a load.
func (r *Registry) Status(name string) (Status, error) {
	e, ok := r.lookup(name)
	if !ok {
		return Status{}, fmt.Errorf("%w %q", ErrUnknownGraph, name)
	}
	return e.status(), nil
}

func loadEdgeListFile(path string, kind graph.Kind, weighted bool, sigPath string) (loaded, error) {
	f, err := os.Open(path)
	if err != nil {
		// Open failures (missing file, permissions, transient FS trouble)
		// are retryable; parse failures below are not.
		return loaded{}, err
	}
	// The checksum is computed over exactly the bytes the parser consumed,
	// via the tee — no second read of the file.
	h := fnv.New64a()
	g, err := graph.ReadEdgeList(io.TeeReader(f, h), kind, weighted)
	f.Close()
	if err != nil {
		return loaded{}, lifecycle.Permanent(err)
	}
	res := loaded{g: g, checksum: fmt.Sprintf("fnv64a:%016x", h.Sum64())}
	if sigPath != "" {
		sf, err := os.Open(sigPath)
		if err != nil {
			return loaded{}, err
		}
		// The graph is already loaded, so its node count bounds the score
		// ids exactly — a malformed sidecar cannot demand an allocation
		// beyond n entries.
		res.sig, err = graph.ReadScoresFor(sf, g.NumNodes())
		sf.Close()
		if err != nil {
			return loaded{}, lifecycle.Permanent(err)
		}
	}
	return res, nil
}

// sniffWeighted reports whether the first data line of an edge list has a
// third (weight) column.
func sniffWeighted(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return len(strings.Fields(line)) >= 3, nil
	}
	return false, sc.Err()
}
