// Package jobs is the asynchronous sweep subsystem of the serving layer: it
// accepts a SweepSpec (one graph, the cross product of p/β/α parameter
// lists), expands it into a configuration grid, and executes the grid on a
// bounded worker pool shared by all jobs. Each job tracks per-configuration
// progress, supports cancellation, and retains its results for a TTL after
// completion. Score vectors are computed through the serving layer's
// rankcache, so every configuration a job touches leaves the cache warm for
// later synchronous /rank requests — the sweep is the batch face of the same
// cache the interactive face reads.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"d2pr/internal/pprcache"
	"d2pr/internal/rankcache"
	"d2pr/internal/rankspec"
	"d2pr/internal/registry"
	"d2pr/internal/stats"
	"d2pr/internal/telemetry"
)

// State is a job lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether the state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Options configures a Manager.
type Options struct {
	// Workers bounds how many configurations execute concurrently across
	// all jobs. 0 means DefaultWorkers.
	Workers int
	// TTL is how long a finished job's results stay retrievable. 0 means
	// DefaultTTL.
	TTL time.Duration
	// Resolve materializes a graph by registry name. Required.
	Resolve func(name string) (*registry.Snapshot, error)
	// Cache receives every computed score vector. Required.
	Cache *rankcache.Cache[[]float64]
	// PPRCache receives every computed personalized top-k. Required only for
	// SubmitPPR; a manager built without one rejects PPR cohorts.
	PPRCache *rankcache.Cache[[]pprcache.Entry]
	// Telemetry, when non-nil, receives per-solve statistics for every fresh
	// solve a job executes — batch work shows up in the same per-graph
	// iteration/residual series as interactive traffic.
	Telemetry *telemetry.Registry
}

// Defaults for Options.
const (
	DefaultWorkers = 4
	DefaultTTL     = 15 * time.Minute
)

// ConfigResult is the retained outcome of one configuration of a sweep or
// one seed of a PPR cohort. Exactly one of Spec / PPRSpec is populated,
// matching the job kind.
type ConfigResult struct {
	// Config is the canonical cache key (rankcache for sweeps, pprcache for
	// cohorts); a later synchronous request with the same configuration is
	// served from the corresponding cache.
	Config string        `json:"config"`
	Spec   rankspec.Spec `json:"spec,omitzero"`
	// Seed and PPRSpec identify a PPR-cohort row.
	Seed    *int32            `json:"seed,omitempty"`
	PPRSpec *rankspec.PPRSpec `json:"ppr_spec,omitempty"`
	// Cached reports that the score vector came from the rank cache (or an
	// in-flight solve it piggybacked on) rather than a fresh solve.
	Cached    bool    `json:"cached"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Iterations, Residual, Converged, and Pushes carry the solver's own
	// diagnostics for rows whose solve ran fresh (they are zero for cached
	// rows — the cache stores scores, not the work that produced them).
	// Residual is the final L1 residual for iterative solves and the
	// un-pushed residual mass for PPR rows; Pushes is PPR-only.
	Iterations int              `json:"iterations,omitempty"`
	Residual   float64          `json:"residual,omitempty"`
	Converged  bool             `json:"converged,omitempty"`
	Pushes     int              `json:"pushes,omitempty"`
	Top        []rankspec.Entry `json:"top,omitempty"`
	// Spearman and DegreeSpearman are set when the sweep requested
	// correlation: ranking vs. significance and ranking vs. degree.
	Spearman       *float64 `json:"spearman,omitempty"`
	DegreeSpearman *float64 `json:"degree_spearman,omitempty"`
	Error          string   `json:"error,omitempty"`
	// Skipped marks a configuration whose solve never ran because the job
	// was cancelled (or the manager shut down) first. Skipped rows still
	// appear in the NDJSON stream — every configuration of the grid is
	// accounted for — but are excluded from Status.Completed and do not
	// count as failures.
	Skipped bool `json:"skipped,omitempty"`
}

// Status is a point-in-time snapshot of one job.
type Status struct {
	ID    string `json:"id"`
	Graph string `json:"graph"`
	Algo  string `json:"algo"`
	State State  `json:"state"`
	// Total is the grid size; Completed counts finished configurations
	// (including failed ones, excluding skipped ones), Failed the subset
	// that errored, Skipped the configurations a cancellation kept from
	// ever starting.
	Total      int       `json:"total"`
	Completed  int       `json:"completed"`
	Failed     int       `json:"failed"`
	Skipped    int       `json:"skipped,omitempty"`
	Error      string    `json:"error,omitempty"`
	CreatedAt  time.Time `json:"created_at"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
	// RequestID echoes the X-Request-ID of the submitting request, tying a
	// job's lifecycle back to the access-log line that created it.
	RequestID string `json:"request_id,omitempty"`
}

// job is the internal mutable job record. cond is broadcast on every result
// append and state change, which Stream uses to deliver rows as they land.
type job struct {
	id        string
	requestID string
	spec      SweepSpec
	specs     []rankspec.Spec
	// pprSpec/pprSpecs are set instead of spec/specs for PPR-cohort jobs.
	pprSpec  *PPRBatchSpec
	pprSpecs []rankspec.PPRSpec

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	state    State
	results  []ConfigResult
	failed   int
	skipped  int
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
}

func (j *job) statusLocked() Status {
	graph, algo, total := j.spec.Graph, j.spec.Algo, len(j.specs)
	if j.pprSpec != nil {
		graph, algo, total = j.pprSpec.Graph, AlgoPPR, len(j.pprSpecs)
	}
	return Status{
		ID: j.id, Graph: graph, Algo: algo, State: j.state,
		Total: total, Completed: len(j.results) - j.skipped, Failed: j.failed, Skipped: j.skipped,
		Error: j.errMsg, CreatedAt: j.created, StartedAt: j.started, FinishedAt: j.finished,
		RequestID: j.requestID,
	}
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// Sentinel errors returned by Manager methods.
var (
	ErrUnknownJob = errors.New("jobs: unknown job")
	ErrClosed     = errors.New("jobs: manager is closed")
)

// Stats aggregates manager-level counters for the /metrics endpoint.
type Stats struct {
	Workers   int    `json:"workers"`
	Submitted uint64 `json:"submitted"`
	// Active counts jobs not yet in a terminal state.
	Active    int    `json:"active"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	// Retained counts jobs currently held (active + finished within TTL).
	Retained int `json:"retained"`
}

// Manager owns the worker pool and the job table. All methods are safe for
// concurrent use.
type Manager struct {
	opts Options
	sem  chan struct{}

	mu     sync.Mutex
	jobs   map[string]*job
	seq    uint64
	closed bool
	totals struct {
		submitted, done, failed, cancelled uint64
	}

	wg          sync.WaitGroup // one unit per running job goroutine
	janitorStop chan struct{}

	// hookBeforeConfig / hookBeforePPRConfig, when non-nil, run before each
	// configuration executes — test seams for deterministic
	// cancellation/progress tests.
	hookBeforeConfig    func(cfg rankspec.Spec)
	hookBeforePPRConfig func(cfg rankspec.PPRSpec)
}

// New returns a Manager executing sweeps with opts. Resolve and Cache are
// required. Call Close to drain workers and stop the TTL janitor.
func New(opts Options) (*Manager, error) {
	if opts.Resolve == nil || opts.Cache == nil {
		return nil, errors.New("jobs: Options.Resolve and Options.Cache are required")
	}
	if opts.Workers <= 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.TTL <= 0 {
		opts.TTL = DefaultTTL
	}
	m := &Manager{
		opts:        opts,
		sem:         make(chan struct{}, opts.Workers),
		jobs:        map[string]*job{},
		janitorStop: make(chan struct{}),
	}
	go m.janitor()
	return m, nil
}

// Sem exposes the manager's worker semaphore so synchronous sweeps
// (RunSync) can share the same global concurrency bound as async jobs —
// with a shared semaphore, -job-workers caps total in-flight sweep
// configurations regardless of how the work arrived.
func (m *Manager) Sem() chan struct{} { return m.sem }

// janitor prunes expired jobs periodically (List/Get also prune lazily, so
// the janitor only bounds memory when nobody is looking).
func (m *Manager) janitor() {
	interval := min(max(m.opts.TTL/2, 10*time.Millisecond), time.Minute)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-t.C:
			m.prune()
		}
	}
}

// prune drops finished jobs older than the TTL.
func (m *Manager) prune() {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, j := range m.jobs {
		j.mu.Lock()
		expired := j.state.terminal() && now.Sub(j.finished) > m.opts.TTL
		j.mu.Unlock()
		if expired {
			delete(m.jobs, id)
		}
	}
}

// Submit validates and enqueues a sweep, returning the queued job's status.
// The grid starts executing immediately (subject to worker availability).
func (m *Manager) Submit(spec SweepSpec) (Status, error) {
	return m.SubmitTraced(spec, "")
}

// SubmitTraced is Submit with a request ID attached to the job record, so
// job listings and NDJSON terminal lines carry the submitting request's
// X-Request-ID.
func (m *Manager) SubmitTraced(spec SweepSpec, requestID string) (Status, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		requestID: requestID,
		spec:      spec,
		specs:     spec.Expand(),
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		created:   time.Now(),
	}
	return m.enqueue(j)
}

// enqueue registers a constructed job and starts its runner goroutine.
func (m *Manager) enqueue(j *job) (Status, error) {
	j.cond = sync.NewCond(&j.mu)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		j.cancel()
		return Status{}, ErrClosed
	}
	m.seq++
	j.id = fmt.Sprintf("job-%06d", m.seq)
	m.jobs[j.id] = j
	m.totals.submitted++
	m.wg.Add(1)
	m.mu.Unlock()

	go m.run(j)
	return j.status(), nil
}

// run executes one job: resolve the graph once, re-validate seeds against
// the real node count, then fan the work out over the shared worker pool.
func (m *Manager) run(j *job) {
	defer m.wg.Done()
	// A panic anywhere on the job path (resolve, engine build, fan-out
	// bookkeeping) fails this job, not the process. Per-configuration panics
	// are additionally contained inside fanOut so one bad configuration
	// doesn't take down its siblings.
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if m.opts.Telemetry != nil {
			m.opts.Telemetry.RecordPanic()
		}
		j.mu.Lock()
		terminal := j.state.terminal()
		j.mu.Unlock()
		if !terminal {
			m.finishJob(j, fmt.Sprintf("panic: %v", p))
		}
	}()
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.cond.Broadcast()
	j.mu.Unlock()

	if j.pprSpec != nil {
		m.runPPR(j)
		return
	}

	snap, err := m.opts.Resolve(j.spec.Graph)
	if err == nil {
		err = j.spec.ValidateWith(snap)
	}
	if err != nil {
		m.finishJob(j, err.Error())
		return
	}

	var deg []float64
	if j.spec.Correlate {
		deg = rankspec.DegreeVector(snap.Graph)
	}
	m.fanOut(j, len(j.specs), func(i int) ConfigResult {
		cfg := j.specs[i]
		if m.hookBeforeConfig != nil {
			m.hookBeforeConfig(cfg)
		}
		return runConfig(j.ctx, snap, cfg, j.spec, m.opts.Cache, deg, m.opts.Telemetry)
	}, func(i int) ConfigResult {
		cfg := j.specs[i]
		return ConfigResult{Config: string(cfg.CacheKey()), Spec: cfg, Skipped: true, Error: "cancelled"}
	})
}

// fanOut executes n work items over the shared worker pool, appending each
// item's result row as it completes (broadcasting for streamers), then moves
// the job to its terminal state. exec must be safe for concurrent calls; it
// is never invoked after the job's context is cancelled — configurations the
// cancellation keeps from running land as skip(i) rows instead, so the
// NDJSON stream accounts for every configuration of the grid rather than
// silently dropping the tail.
func (m *Manager) fanOut(j *job, n int, exec, skip func(i int) ConfigResult) {
	add := func(res ConfigResult) {
		j.mu.Lock()
		j.results = append(j.results, res)
		if res.Skipped {
			j.skipped++
		} else if res.Error != "" {
			j.failed++
			if j.errMsg == "" {
				j.errMsg = res.Error
			}
		}
		j.cond.Broadcast()
		j.mu.Unlock()
	}
	// runOne contains a panicking configuration: the row is recorded as a
	// failure (skip(i) supplies the Config/Spec identity) and the worker
	// goroutine survives to release its semaphore slot.
	runOne := func(i int) (res ConfigResult) {
		defer func() {
			if p := recover(); p != nil {
				if m.opts.Telemetry != nil {
					m.opts.Telemetry.RecordPanic()
				}
				res = skip(i)
				res.Skipped = false
				res.Error = fmt.Sprintf("panic: %v", p)
			}
		}()
		return exec(i)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if j.ctx.Err() != nil {
			add(skip(i))
			continue
		}
		select {
		case <-j.ctx.Done():
			add(skip(i))
		case m.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-m.sem }()
				if j.ctx.Err() != nil {
					add(skip(i))
					return
				}
				add(runOne(i))
			}(i)
		}
	}
	wg.Wait()
	m.finishJob(j, "")
}

// finishJob moves a job to its terminal state and updates the manager
// counters. errMsg, when non-empty, marks the whole job failed (e.g. the
// graph never resolved); otherwise the state derives from cancellation and
// per-configuration failures. The counter and the state change under m.mu
// together (taken before j.mu, the order Stats uses), so no reader sees a
// terminal job that the totals do not count yet.
func (m *Manager) finishJob(j *job, errMsg string) {
	m.mu.Lock()
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case errMsg != "":
		j.state = StateFailed
		j.errMsg = errMsg
	case j.ctx.Err() != nil:
		j.state = StateCancelled
	case j.failed > 0:
		j.state = StateFailed
	default:
		j.state = StateDone
	}
	switch j.state {
	case StateDone:
		m.totals.done++
	case StateFailed:
		m.totals.failed++
	case StateCancelled:
		m.totals.cancelled++
	}
	j.cond.Broadcast()
	j.mu.Unlock()
	m.mu.Unlock()
	j.cancel() // release the context's resources
}

// runConfig executes one configuration through the rank cache and builds its
// retained result row. ctx bounds this configuration's wait and (if it is
// the last interested party) its solve. deg is the precomputed per-node
// degree vector (nil unless the sweep correlates). tel, when non-nil,
// receives the solve's statistics from inside the compute closure — recorded
// even when the requester abandons the solve.
//
// The solve diagnostics on the returned row come from a probe the closure
// fills. Reading it is only safe on the leader-success path (err == nil and
// !cached): the cache's done-channel close orders the closure's writes before
// the leader's return, whereas on error or piggyback paths an abandoned
// closure may still be running.
func runConfig(ctx context.Context, snap *registry.Snapshot, cfg rankspec.Spec, sw SweepSpec, cache *rankcache.Cache[[]float64], deg []float64, tel *telemetry.Registry) ConfigResult {
	started := time.Now()
	// Cache operations are keyed by snapshot epoch (a reload invalidates by
	// changing the key); the wire-visible Config string stays epoch-less so
	// rows are comparable across reloads.
	key := cfg.CacheKeyFor(snap)
	var probe telemetry.SolveStats
	scores, cached, err := cache.Get(ctx, key, func(solveCtx context.Context) ([]float64, error) {
		s, st, cerr := cfg.ComputeStats(solveCtx, snap)
		if cerr != nil {
			if tel != nil {
				tel.RecordSolveError(snap.Name)
			}
			return nil, cerr
		}
		if tel != nil {
			tel.RecordSolve(snap.Name, st)
		}
		probe = st
		return s, nil
	})
	res := ConfigResult{Config: string(cfg.CacheKey()), Spec: cfg, Cached: cached}
	if err != nil {
		res.Error = err.Error()
		res.ElapsedMs = time.Since(started).Seconds() * 1000
		return res
	}
	if !cached {
		res.Iterations = probe.Iterations
		res.Residual = probe.Residual
		res.Converged = probe.Converged
	}
	if sw.TopK > 0 {
		res.Top = rankspec.TopEntries(snap.Graph, scores, sw.TopK)
	}
	if sw.Correlate && snap.Significance != nil {
		rho := stats.Spearman(scores, snap.Significance)
		res.Spearman = &rho
		dr := stats.Spearman(scores, deg)
		res.DegreeSpearman = &dr
	}
	res.ElapsedMs = time.Since(started).Seconds() * 1000
	return res
}

// RunSync executes a sweep synchronously over an already-resolved snapshot,
// returning results in grid order. It backs the /v1/{graph}/rank/batch
// endpoint: one registry snapshot and one CSR are shared across every
// configuration, and each score vector still lands in the cache. sem bounds
// configuration concurrency; pass a semaphore shared across callers to cap
// the aggregate solver load of concurrent batches (nil creates a
// call-local DefaultWorkers bound). ctx cancellation stops launching new
// configurations; rows for configurations never started carry a
// "cancelled" error.
func RunSync(ctx context.Context, snap *registry.Snapshot, sw SweepSpec, cache *rankcache.Cache[[]float64], sem chan struct{}) []ConfigResult {
	return RunSyncTraced(ctx, snap, sw, cache, sem, nil)
}

// RunSyncTraced is RunSync with an optional telemetry registry: fresh solves
// report their statistics to tel exactly as async jobs' do.
func RunSyncTraced(ctx context.Context, snap *registry.Snapshot, sw SweepSpec, cache *rankcache.Cache[[]float64], sem chan struct{}, tel *telemetry.Registry) []ConfigResult {
	sw = sw.withDefaults()
	specs := sw.Expand()
	if sem == nil {
		sem = make(chan struct{}, DefaultWorkers)
	}
	var deg []float64
	if sw.Correlate {
		deg = rankspec.DegreeVector(snap.Graph)
	}
	results := make([]ConfigResult, len(specs))
	var wg sync.WaitGroup
	for i, cfg := range specs {
		// Select on ctx while waiting for a slot (the semaphore may be
		// shared with other in-flight batches): a disconnected client must
		// neither block here nor burn a solve once a slot frees up.
		cancelled := ctx.Err() != nil
		if !cancelled {
			select {
			case <-ctx.Done():
				cancelled = true
			case sem <- struct{}{}:
			}
		}
		if cancelled {
			results[i] = ConfigResult{Config: string(cfg.CacheKey()), Spec: cfg, Skipped: true, Error: "cancelled"}
			continue
		}
		wg.Add(1)
		go func(i int, cfg rankspec.Spec) {
			defer wg.Done()
			defer func() { <-sem }()
			if ctx.Err() != nil {
				results[i] = ConfigResult{Config: string(cfg.CacheKey()), Spec: cfg, Skipped: true, Error: "cancelled"}
				return
			}
			results[i] = runConfig(ctx, snap, cfg, sw, cache, deg, tel)
		}(i, cfg)
	}
	wg.Wait()
	return results
}

// Get returns the status of one job.
func (m *Manager) Get(id string) (Status, error) {
	m.prune()
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	return j.status(), nil
}

// List returns every retained job's status, newest first.
func (m *Manager) List() []Status {
	m.prune()
	m.mu.Lock()
	out := make([]Status, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.status())
	}
	m.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID > out[b].ID })
	return out
}

// Cancel requests cancellation of a running job. Configurations already
// executing finish (a power-iteration solve is not interruptible); queued
// configurations are dropped. Cancelling a finished job is a no-op; the
// returned status reflects the job at call time.
func (m *Manager) Cancel(id string) (Status, error) {
	m.prune()
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	j.mu.Lock()
	terminal := j.state.terminal()
	j.mu.Unlock()
	if !terminal {
		j.cancel()
	}
	return j.status(), nil
}

// Results returns a snapshot of the job's completed configuration rows (in
// completion order) plus its current status. For a running job this is the
// partial result set so far.
func (m *Manager) Results(id string) ([]ConfigResult, Status, error) {
	m.prune()
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, Status{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	j.mu.Lock()
	rows := make([]ConfigResult, len(j.results))
	copy(rows, j.results)
	st := j.statusLocked()
	j.mu.Unlock()
	return rows, st, nil
}

// Stream delivers the job's configuration rows to fn in completion order,
// including rows that complete after the call starts, and returns when the
// job reaches a terminal state (after all rows are delivered), fn returns an
// error, or ctx is cancelled. The returned status is the job's state at exit.
func (m *Manager) Stream(ctx context.Context, id string, fn func(ConfigResult) error) (Status, error) {
	m.prune()
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	// cond.Wait cannot select on ctx; wake the waiter when ctx fires.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()

	j.mu.Lock()
	defer j.mu.Unlock()
	next := 0
	for {
		for next < len(j.results) && ctx.Err() == nil {
			row := j.results[next]
			next++
			j.mu.Unlock()
			err := fn(row)
			j.mu.Lock()
			if err != nil {
				return j.statusLocked(), err
			}
		}
		if ctx.Err() != nil {
			return j.statusLocked(), ctx.Err()
		}
		if j.state.terminal() {
			return j.statusLocked(), nil
		}
		j.cond.Wait()
	}
}

// Stats returns manager-level counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Workers:   m.opts.Workers,
		Submitted: m.totals.submitted,
		Done:      m.totals.done,
		Failed:    m.totals.failed,
		Cancelled: m.totals.cancelled,
		Retained:  len(m.jobs),
	}
	for _, j := range m.jobs {
		j.mu.Lock()
		if !j.state.terminal() {
			st.Active++
		}
		j.mu.Unlock()
	}
	return st
}

// closeSettle bounds how long Close waits, after cancelling jobs on grace
// expiry, for workers to observe the cancellation. A power-iteration solve
// is not interruptible, so waiting for full completion could hold process
// exit hostage for minutes on a large graph; after the settle window Close
// returns and any still-running solves are abandoned to process exit (or,
// in a library embedder, finish harmlessly in the background).
const closeSettle = time.Second

// Close stops accepting submissions, stops the janitor, and waits for
// running jobs to drain. If ctx expires first, every remaining job is
// cancelled, Close waits up to closeSettle for the in-flight
// configurations to wind down, and returns ctx.Err() — it does not block
// indefinitely on a non-interruptible solve. Close is idempotent only in
// its first call; callers own calling it once.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.janitorStop)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		for _, j := range m.jobs {
			j.cancel()
		}
		m.mu.Unlock()
		select {
		case <-done:
		case <-time.After(closeSettle):
		}
		return ctx.Err()
	}
}
