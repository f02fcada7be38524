// Package jobs is the sweep subsystem of the serving layer: it accepts a
// SweepSpec (one graph, the cross product of p/β/α parameter lists) or a PPR
// seed cohort, expands it into rows, and executes them on one bounded worker
// pool that asynchronous jobs, synchronous batches (RunSync) and warming
// share. Each job tracks per-configuration progress, supports cancellation,
// and retains its results for a TTL after completion. Score vectors are computed through the serving layer's
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
	Cache *rankcache.Cache[rankspec.Ranking]
	// PPRCache receives every computed personalized top-k. Required only for
	// SubmitPPR; a manager built without one rejects PPR cohorts.
	PPRCache *rankcache.Cache[[]rankspec.PPRRow]
	// Telemetry receives per-solve statistics for every fresh solve a job or
	// batch executes — batch work shows up in the same per-graph
	// iteration/residual series as interactive traffic — and every row
	// panic. nil means a private registry.
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
	// Config is the canonical cache key (Spec.CacheKey for sweeps,
	// PPRSpec.CacheKey for cohorts); a later synchronous request with the
	// same configuration is served from the corresponding cache.
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
	// Skipped marks a configuration whose solve never finished because the
	// job was cancelled (or the manager shut down, or a batch's deadline
	// expired) first. Skipped rows still appear in the NDJSON stream —
	// every configuration of the grid is accounted for — but are excluded
	// from Status.Completed and do not count as failures.
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
	// finishing.
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

// rowFunc runs row i of a batch bound to its snapshot: one configuration of
// a sweep or one seed of a cohort, solved through the cache under ctx.
type rowFunc func(ctx context.Context, i int) ConfigResult

// job is the internal mutable job record. cond is broadcast on every result
// append and state change, which Stream uses to deliver rows as they land.
type job struct {
	id, requestID string
	graph, algo   string
	total         int
	// bind validates the job against its resolved snapshot and returns its
	// row runner; skip builds row i's skipped row. The two are all that
	// tells a sweep from a PPR cohort.
	bind func(snap *registry.Snapshot) (rowFunc, error)
	skip func(i int) ConfigResult

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
	return Status{
		ID: j.id, Graph: j.graph, Algo: j.algo, State: j.state,
		Total: j.total, Completed: len(j.results) - j.skipped, Failed: j.failed, Skipped: j.skipped,
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

// Manager owns the worker semaphore and the job table. All methods are safe
// for concurrent use.
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

	wg sync.WaitGroup // one unit per running job goroutine

	// hookBeforeRow, when non-nil, runs before each row executes — a test
	// seam for deterministic cancellation, progress and panic tests.
	hookBeforeRow func(i int)
}

// New returns a Manager executing sweeps with opts. Resolve and Cache are
// required. New starts no goroutine: a job's goroutines exit when it
// finishes, and Close drains them.
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
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.NewRegistry()
	}
	return &Manager{
		opts: opts,
		sem:  make(chan struct{}, opts.Workers),
		jobs: map[string]*job{},
	}, nil
}

// prune drops finished jobs older than the TTL. Every Manager method that
// reads the job table or adds to it prunes first, so no reader sees an
// expired job and the table grows only by a submission that has pruned.
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
// requestID, when non-empty, is the submitting request's X-Request-ID: job
// listings and NDJSON terminal lines carry it.
func (m *Manager) Submit(spec SweepSpec, requestID string) (Status, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	specs := spec.Expand()
	return m.enqueue(&job{
		requestID: requestID, graph: spec.Graph, algo: spec.Algo, total: len(specs),
		bind: func(snap *registry.Snapshot) (rowFunc, error) {
			if err := spec.ValidateWith(snap); err != nil {
				return nil, err
			}
			return m.sweepRows(snap, spec, specs), nil
		},
		skip: sweepSkip(specs),
	})
}

// enqueue registers a constructed job and starts its runner goroutine.
func (m *Manager) enqueue(j *job) (Status, error) {
	m.prune()
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.cond = sync.NewCond(&j.mu)
	j.state, j.created = StateQueued, time.Now()
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

// run executes one job: resolve the graph once, bind the job to it (which
// re-validates against the real node count), then fan the rows out over the
// shared worker semaphore, appending each row as it completes.
func (m *Manager) run(j *job) {
	defer m.wg.Done()
	// A panic anywhere on the job path (resolve, engine build, fan-out
	// bookkeeping) fails this job, not the process. Per-row panics are
	// additionally contained inside fanOut so one bad row doesn't take down
	// its siblings.
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		m.opts.Telemetry.RecordPanic()
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

	snap, err := m.opts.Resolve(j.graph)
	var row rowFunc
	if err == nil {
		row, err = j.bind(snap)
	}
	if err != nil {
		m.finishJob(j, err.Error())
		return
	}
	m.fanOut(j.ctx, j.total, row, j.skip, func(_ int, res ConfigResult) {
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
	})
	m.finishJob(j, "")
}

// fanOut runs rows 0..n-1 under the manager's semaphore, so -job-workers
// bounds async jobs, synchronous batches and warming together, and hands
// each finished row to land (from the row's goroutine, in completion
// order). It returns once every row has landed. A row that ctx keeps from
// starting lands as skip(i), and so does a row that ends in an error after
// ctx ended: the cancellation cut it short. A row that panics lands as a
// failed row with skip(i)'s identity, and its slot is released.
func (m *Manager) fanOut(ctx context.Context, n int, row rowFunc, skip func(i int) ConfigResult, land func(i int, res ConfigResult)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if ctx.Err() == nil {
			select {
			case m.sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-m.sem }()
					land(i, m.runRow(ctx, i, row, skip))
				}()
				continue
			case <-ctx.Done():
			}
		}
		land(i, skip(i))
	}
	wg.Wait()
}

// runRow runs row i for fanOut.
func (m *Manager) runRow(ctx context.Context, i int, row rowFunc, skip func(i int) ConfigResult) (res ConfigResult) {
	defer func() {
		if p := recover(); p != nil {
			m.opts.Telemetry.RecordPanic()
			res = skip(i)
			res.Skipped = false
			res.Error = fmt.Sprintf("panic: %v", p)
		}
	}()
	if ctx.Err() == nil {
		if m.hookBeforeRow != nil {
			m.hookBeforeRow(i)
		}
		if res = row(ctx, i); res.Error == "" || ctx.Err() == nil {
			return res
		}
	}
	return skip(i)
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

// RunSync runs a sweep over an already-resolved snapshot on the manager's
// workers and returns its rows in grid order. It backs /v1/{graph}/rank/batch
// and warming: one registry snapshot and one CSR are shared across every
// configuration, and each score vector lands in the cache. sw must have
// passed Validate and ValidateWith. Configurations that ctx keeps from
// finishing come back as skipped rows.
func (m *Manager) RunSync(ctx context.Context, snap *registry.Snapshot, sw SweepSpec) []ConfigResult {
	sw = sw.withDefaults()
	specs := sw.Expand()
	results := make([]ConfigResult, len(specs))
	m.fanOut(ctx, len(specs), m.sweepRows(snap, sw, specs), sweepSkip(specs), func(i int, res ConfigResult) {
		results[i] = res
	})
	return results
}

// sweepRows binds a sweep's configurations to their snapshot. Row i solves
// specs[i] through the rank cache and builds its retained row: solve
// diagnostics when the row led a fresh solve, then the top-k and the
// correlations the sweep asked for.
//
// Spearman's ρ is the Pearson correlation of fractional ranks, so the
// significance and degree vectors, which every row correlates against, are
// ranked once here, and each row ranks its own scores once for both.
func (m *Manager) sweepRows(snap *registry.Snapshot, sw SweepSpec, specs []rankspec.Spec) rowFunc {
	var sigRanks, degRanks []float64
	if sw.Correlate && snap.Significance != nil {
		sigRanks = stats.Ranks(snap.Significance)
		degRanks = stats.Ranks(rankspec.DegreeVector(snap.Graph))
	}
	return func(ctx context.Context, i int) ConfigResult {
		started := time.Now()
		cfg := specs[i]
		// Cache operations are keyed by snapshot epoch (a reload invalidates
		// by changing the key); the wire-visible Config string stays
		// epoch-less so rows are comparable across reloads.
		key := cfg.CacheKey()
		rk, st, err := rankspec.Solve(ctx, m.opts.Cache, m.opts.Telemetry, snap, rankspec.EpochKey(key, snap.Epoch), cfg, nil)
		res := ConfigResult{Config: string(key), Spec: cfg, Cached: err == nil && st == nil}
		if err != nil {
			res.Error = err.Error()
			res.ElapsedMs = time.Since(started).Seconds() * 1000
			return res
		}
		if st != nil {
			res.Iterations, res.Residual, res.Converged = st.Iterations, st.Residual, st.Converged
		}
		if sw.TopK > 0 {
			res.Top = rk.Top(snap.Graph, sw.TopK)
		}
		if sigRanks != nil {
			ranks := stats.Ranks(rk.Scores)
			rho := stats.Pearson(ranks, sigRanks)
			res.Spearman = &rho
			dr := stats.Pearson(ranks, degRanks)
			res.DegreeSpearman = &dr
		}
		res.ElapsedMs = time.Since(started).Seconds() * 1000
		return res
	}
}

// sweepSkip builds the skipped row of a sweep's configuration i.
func sweepSkip(specs []rankspec.Spec) func(i int) ConfigResult {
	return func(i int) ConfigResult {
		return ConfigResult{Config: string(specs[i].CacheKey()), Spec: specs[i], Skipped: true, Error: "cancelled"}
	}
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

// Cancel requests cancellation of a running job. Queued configurations and
// those already solving land as skipped rows at once; a solve no other
// request waits for stops at its solver's next context poll, once per
// iteration (degree centrality does not poll, and is O(n)). Cancelling a
// finished job is a no-op; the returned status reflects the job at call
// time.
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
	m.prune()
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
// expiry, for workers to observe the cancellation. Rows leave their solves
// at once, but a job still resolving its graph cannot be interrupted, so
// waiting for full completion could hold process exit hostage on a large
// graph; after the settle window Close returns and any still-running work is
// abandoned to process exit (or, in a library embedder, finishes harmlessly
// in the background).
const closeSettle = time.Second

// Close stops accepting submissions and waits for running jobs to drain.
// If ctx expires first, every remaining job is cancelled, Close waits up to
// closeSettle for the in-flight configurations to wind down, and returns
// ctx.Err() — it does not block indefinitely on work that ignores
// cancellation. Close is idempotent
// only in its first call; callers own calling it once.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
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
