package jobs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"d2pr/internal/graph"
	"d2pr/internal/rankcache"
	"d2pr/internal/rankspec"
	"d2pr/internal/registry"
	"d2pr/internal/stats"
	"d2pr/internal/telemetry"
)

func testRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	g, err := graph.FromEdges(graph.Undirected, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 4}, {4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	if err := reg.AddGraph("g", g, []float64{0.1, 0.9, 0.4, 0.8, 0.3, 0.7}); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddGraph("nosig", g, nil); err != nil {
		t.Fatal(err)
	}
	return reg
}

func testManager(t *testing.T, reg *registry.Registry, opts Options) (*Manager, *rankcache.Cache[rankspec.Ranking]) {
	t.Helper()
	cache := rankcache.NewLRU[rankspec.Ranking](64)
	opts.Resolve = reg.Get
	opts.Cache = cache
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Close(ctx)
	})
	return m, cache
}

// waitTerminal polls until the job leaves its running states.
func waitTerminal(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return Status{}
}

func TestSweepExpand(t *testing.T) {
	sw := SweepSpec{Graph: "g", Ps: []float64{0, 0.5}, Betas: []float64{0, 1}, Alphas: []float64{0.5, 0.85, 0.9}}
	if n := sw.GridSize(); n != 12 {
		t.Fatalf("grid size = %d, want 12", n)
	}
	specs := sw.Expand()
	if len(specs) != 12 {
		t.Fatalf("expanded = %d", len(specs))
	}
	// Every grid point is a distinct spec, but β = 1 ignores p, so the two
	// p values there share one cache key per α: 12 specs, 9 keys.
	seenSpec := map[[3]float64]bool{}
	keys := map[string][]rankspec.Spec{}
	for _, sp := range specs {
		if sp.Algo != rankspec.AlgoD2PR {
			t.Errorf("algo not defaulted: %+v", sp)
		}
		id := [3]float64{sp.P, sp.Beta, sp.Alpha}
		if seenSpec[id] {
			t.Errorf("duplicate spec in grid: %+v", sp)
		}
		seenSpec[id] = true
		key := string(sp.CacheKey())
		keys[key] = append(keys[key], sp)
	}
	if len(keys) != 9 {
		t.Errorf("%d distinct cache keys, want 9", len(keys))
	}
	for key, group := range keys {
		if len(group) > 1 && group[0].Beta != 1 {
			t.Errorf("β<1 specs share key %s: %+v", key, group)
		}
	}
	// Empty axes default to a one-point grid.
	if n := (SweepSpec{Graph: "g"}).GridSize(); n != 1 {
		t.Errorf("default grid size = %d, want 1", n)
	}
}

func TestSweepValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		sw   SweepSpec
		ok   bool
	}{
		{"defaults", SweepSpec{Graph: "g"}, true},
		{"no graph", SweepSpec{}, false},
		{"bad algo", SweepSpec{Graph: "g", Algo: "bogus"}, false},
		{"bad beta", SweepSpec{Graph: "g", Betas: []float64{0, 2}}, false},
		{"bad alpha", SweepSpec{Graph: "g", Alphas: []float64{0.85, 1}}, false},
		{"NaN p", SweepSpec{Graph: "g", Ps: []float64{0, math.NaN()}}, false},
		{"Inf p", SweepSpec{Graph: "g", Ps: []float64{0, math.Inf(1)}}, false},
		{"NaN beta", SweepSpec{Graph: "g", Betas: []float64{0, math.NaN()}}, false},
		{"NaN alpha", SweepSpec{Graph: "g", Alphas: []float64{0.85, math.NaN()}}, false},
		{"negative topk", SweepSpec{Graph: "g", TopK: -1}, false},
		{"negative seed", SweepSpec{Graph: "g", Seeds: []int32{-1}}, false},
		{"oversized grid", SweepSpec{Graph: "g",
			Ps:     make([]float64, 100),
			Betas:  make([]float64, 100),
			Alphas: []float64{0.85}}, false},
	} {
		err := tc.sw.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	reg := testRegistry(t)
	m, cache := testManager(t, reg, Options{Workers: 3})
	snap, err := reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(SweepSpec{
		Graph: "g", Ps: []float64{0, 0.5, 1}, Betas: []float64{0, 1},
		TopK: 3, Correlate: true,
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 6 {
		t.Fatalf("total = %d, want 6", st.Total)
	}
	final := waitTerminal(t, m, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q)", final.State, final.Error)
	}
	if final.Completed != 6 || final.Failed != 0 {
		t.Fatalf("progress = %d/%d failed %d", final.Completed, final.Total, final.Failed)
	}
	rows, _, err := m.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("results = %d rows", len(rows))
	}
	for _, row := range rows {
		if row.Error != "" {
			t.Errorf("config %s failed: %s", row.Config, row.Error)
		}
		if len(row.Top) != 3 {
			t.Errorf("config %s top = %d rows", row.Config, len(row.Top))
		}
		if row.Spearman == nil || row.DegreeSpearman == nil {
			t.Errorf("config %s missing correlations", row.Config)
		}
		// The job's solve must be findable by a later synchronous request
		// deriving the epoch-qualified key from the same spec and snapshot.
		rk, hit := cache.Lookup(row.Spec.CacheKeyFor(snap))
		if !hit {
			t.Errorf("config %s not resident in the rank cache", row.Config)
			continue
		}
		// The sweep ranks its reference vectors once; ρ must not move a bit.
		if row.Spearman != nil && *row.Spearman != stats.Spearman(rk.Scores, snap.Significance) {
			t.Errorf("config %s: spearman %v, want %v", row.Config, *row.Spearman, stats.Spearman(rk.Scores, snap.Significance))
		}
		if deg := rankspec.DegreeVector(snap.Graph); row.DegreeSpearman != nil && *row.DegreeSpearman != stats.Spearman(rk.Scores, deg) {
			t.Errorf("config %s: degree spearman %v, want %v", row.Config, *row.DegreeSpearman, stats.Spearman(rk.Scores, deg))
		}
	}
	// Six grid points, but the three β = 1 rows share one solve.
	if got := cache.Len(); got != 4 {
		t.Errorf("cache len = %d, want 4", got)
	}
}

func TestSubmitValidationAndResolveFailures(t *testing.T) {
	m, _ := testManager(t, testRegistry(t), Options{})
	if _, err := m.Submit(SweepSpec{Graph: "g", Algo: "bogus"}, ""); err == nil {
		t.Error("bad sweep must be rejected at submit")
	}
	// Unknown graph passes Submit (the registry is only consulted at run
	// time) and fails the job.
	st, err := m.Submit(SweepSpec{Graph: "missing"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, m, st.ID); final.State != StateFailed || final.Error == "" {
		t.Errorf("state = %s error = %q, want failed with message", final.State, final.Error)
	}
	// Correlate against a graph without significance fails the job.
	st, err = m.Submit(SweepSpec{Graph: "nosig", Correlate: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, m, st.ID); final.State != StateFailed {
		t.Errorf("state = %s, want failed (no significance)", final.State)
	}
	// Seed beyond the node count fails at run time, not submit.
	st, err = m.Submit(SweepSpec{Graph: "g", Seeds: []int32{999}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, m, st.ID); final.State != StateFailed {
		t.Errorf("state = %s, want failed (seed bounds)", final.State)
	}
}

func TestCancelMidSweep(t *testing.T) {
	m, _ := testManager(t, testRegistry(t), Options{Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 64)
	m.hookBeforeRow = func(int) {
		started <- struct{}{}
		<-release
	}
	st, err := m.Submit(SweepSpec{Graph: "g", Ps: []float64{0, 0.25, 0.5, 0.75, 1}}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-started // first configuration is executing
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	final := waitTerminal(t, m, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if final.Completed >= final.Total {
		t.Errorf("cancel completed the whole grid (%d/%d)", final.Completed, final.Total)
	}
	// Cancelling a finished job is a harmless no-op.
	if st2, err := m.Cancel(st.ID); err != nil || st2.State != StateCancelled {
		t.Errorf("re-cancel: %v / %s", err, st2.State)
	}
	if _, err := m.Cancel("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown cancel err = %v", err)
	}
}

// TestCancelledConfigsLandAsSkippedRows: a cancelled sweep must account for
// every configuration in the grid — the ones the cancel kept from finishing,
// the one it interrupted mid-solve included, come back as explicit skipped
// rows (Skipped, Error "cancelled"), visible both in Results and in the
// streamed NDJSON rows, never silently dropped and never counted as failed.
func TestCancelledConfigsLandAsSkippedRows(t *testing.T) {
	m, _ := testManager(t, testRegistry(t), Options{Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 64)
	m.hookBeforeRow = func(int) {
		started <- struct{}{}
		<-release
	}
	st, err := m.Submit(SweepSpec{Graph: "g", Ps: []float64{0, 0.25, 0.5, 0.75, 1}}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	final := waitTerminal(t, m, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if final.Skipped == 0 {
		t.Fatalf("no skipped configurations recorded: %+v", final)
	}
	if final.Completed+final.Skipped > final.Total {
		t.Fatalf("completed %d + skipped %d exceeds total %d", final.Completed, final.Skipped, final.Total)
	}
	if final.Failed != 0 || final.Error != "" {
		t.Errorf("cancelled job reports failed %d, error %q; want no failure", final.Failed, final.Error)
	}

	rows, _, err := m.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != final.Total {
		t.Fatalf("results hold %d rows for a %d-config grid: cancelled configs were dropped", len(rows), final.Total)
	}
	skipped := 0
	for _, row := range rows {
		if row.Skipped {
			skipped++
			if row.Error != "cancelled" {
				t.Errorf("skipped row %q error = %q, want \"cancelled\"", row.Config, row.Error)
			}
			if row.Top != nil {
				t.Errorf("skipped row %q carries scores", row.Config)
			}
		}
	}
	if skipped != final.Skipped {
		t.Errorf("rows mark %d skipped, status says %d", skipped, final.Skipped)
	}

	// The NDJSON stream replays every row, skipped ones included.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	streamed := 0
	if _, err := m.Stream(ctx, st.ID, func(r ConfigResult) error { streamed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if streamed != final.Total {
		t.Errorf("stream delivered %d rows, want %d", streamed, final.Total)
	}
}

func TestStreamDeliversAllRows(t *testing.T) {
	m, _ := testManager(t, testRegistry(t), Options{Workers: 2})
	st, err := m.Submit(SweepSpec{Graph: "g", Ps: []float64{0, 0.5, 1, 1.5}}, "")
	if err != nil {
		t.Fatal(err)
	}
	var rows []ConfigResult
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := m.Stream(ctx, st.ID, func(r ConfigResult) error {
		rows = append(rows, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || final.State != StateDone {
		t.Fatalf("streamed %d rows, state %s", len(rows), final.State)
	}
	// Streaming an already-finished job replays every row.
	rows = rows[:0]
	if _, err := m.Stream(ctx, st.ID, func(r ConfigResult) error { rows = append(rows, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("replay streamed %d rows", len(rows))
	}
	if _, err := m.Stream(ctx, "job-999999", nil); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown stream err = %v", err)
	}
}

func TestTTLPrunesFinishedJobs(t *testing.T) {
	m, _ := testManager(t, testRegistry(t), Options{TTL: 20 * time.Millisecond})
	st, err := m.Submit(SweepSpec{Graph: "g"}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := m.Get(st.ID); errors.Is(err, ErrUnknownJob) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never pruned")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(m.List()); got != 0 {
		t.Errorf("retained jobs = %d", got)
	}
}

// TestManagerStartsNoGoroutine: once its one job has finished, a manager
// leaves no goroutine running, even before Close.
func TestManagerStartsNoGoroutine(t *testing.T) {
	reg := testRegistry(t)
	base := runtime.NumGoroutine()
	m, _ := testManager(t, reg, Options{})
	st, err := m.Submit(SweepSpec{Graph: "g"}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID)
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 1 s after the job finished, %d before New", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	m, _ := testManager(t, testRegistry(t), Options{Workers: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := m.Submit(SweepSpec{Graph: "g", Ps: []float64{float64(i), float64(i) + 0.1}}, "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Errorf("job %s state after drain = %s", id, st.State)
		}
	}
	if _, err := m.Submit(SweepSpec{Graph: "g"}, ""); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close err = %v", err)
	}
}

func TestCloseCancelsOnExpiredContext(t *testing.T) {
	m, _ := testManager(t, testRegistry(t), Options{Workers: 1})
	release := make(chan struct{})
	var once bool
	m.hookBeforeRow = func(int) {
		if !once {
			once = true
			<-release
		}
	}
	st, err := m.Submit(SweepSpec{Graph: "g", Ps: []float64{0, 0.5, 1}}, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	go func() {
		time.Sleep(60 * time.Millisecond)
		close(release)
	}()
	if err := m.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("close err = %v, want deadline exceeded", err)
	}
	final, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Errorf("state after forced close = %s", final.State)
	}
}

func TestRunSyncSharesSnapshotAndCache(t *testing.T) {
	reg := testRegistry(t)
	m, _ := testManager(t, reg, Options{Workers: 2})
	snap, err := reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	sw := SweepSpec{Graph: "g", Ps: []float64{0, 0.5, 1}, TopK: 2, Correlate: true}
	results := m.RunSync(context.Background(), snap, sw)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for _, row := range results {
		if row.Error != "" {
			t.Errorf("%s: %s", row.Config, row.Error)
		}
		if row.Cached {
			t.Errorf("%s: first run must be a fresh solve", row.Config)
		}
	}
	// Second run over the same grid is all cache hits.
	again := m.RunSync(context.Background(), snap, sw)
	for _, row := range again {
		if !row.Cached {
			t.Errorf("%s: repeat run must be cached", row.Config)
		}
	}
	// A cancelled context marks unlaunched configurations instead of
	// computing them.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gone := m.RunSync(ctx, snap, SweepSpec{Graph: "g", Ps: []float64{7, 8}})
	for _, row := range gone {
		if !row.Skipped || row.Error != "cancelled" {
			t.Errorf("cancelled run produced %+v", row)
		}
	}
	// A context that ends while a row runs cuts it short: the row lands as
	// skipped, never as a failure (it may still win the race and succeed).
	ctx, cancel = context.WithCancel(context.Background())
	m.hookBeforeRow = func(int) { cancel() }
	cut := m.RunSync(ctx, snap, SweepSpec{Graph: "g", Ps: []float64{9}})
	m.hookBeforeRow = nil
	if row := cut[0]; row.Error != "" && (!row.Skipped || row.Error != "cancelled") {
		t.Errorf("row cut short by its context produced %+v", row)
	}
}

// TestRowPanicLandsAsFailedRow drives the one fan-out through a job and
// through RunSync on a one-worker manager. In both, a row that panics lands
// as a failed row whose error starts "panic:", the panic counter behind
// d2pr_panics_total counts it, and its worker slot is released: a following
// RunSync completes.
func TestRowPanicLandsAsFailedRow(t *testing.T) {
	reg := testRegistry(t)
	tel := telemetry.NewRegistry()
	m, _ := testManager(t, reg, Options{Workers: 1, Telemetry: tel})
	snap, err := reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	m.hookBeforeRow = func(i int) {
		if i == 1 {
			panic("injected row panic")
		}
	}
	checkRows := func(path string, sw SweepSpec, rows []ConfigResult) {
		t.Helper()
		if len(rows) != 3 {
			t.Fatalf("%s: %d rows, want 3", path, len(rows))
		}
		for _, row := range rows {
			panicked := row.Spec.P == sw.Ps[1]
			if panicked != strings.HasPrefix(row.Error, "panic:") || row.Skipped {
				t.Errorf("%s: row p=%v: error %q skipped %v", path, row.Spec.P, row.Error, row.Skipped)
			}
			if panicked && row.Config != string(row.Spec.CacheKey()) {
				t.Errorf("%s: panicked row config %q, want its spec's key", path, row.Config)
			}
		}
	}

	sw := SweepSpec{Graph: "g", Ps: []float64{0, 0.5, 1}}
	st, err := m.Submit(sw, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID)
	if final.State != StateFailed || final.Completed != 3 || final.Failed != 1 || !strings.HasPrefix(final.Error, "panic:") {
		t.Errorf("job status %+v, want failed with one panicked row", final)
	}
	rows, _, err := m.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	checkRows("job", sw, rows)
	if got := tel.Panics(); got != 1 {
		t.Errorf("panics after the job = %d, want 1", got)
	}

	sw = SweepSpec{Graph: "g", Ps: []float64{2, 3, 4}}
	checkRows("RunSync", sw, m.RunSync(context.Background(), snap, sw))
	if got := tel.Panics(); got != 2 {
		t.Errorf("panics after RunSync = %d, want 2", got)
	}

	m.hookBeforeRow = nil
	done := make(chan []ConfigResult, 1)
	go func() { done <- m.RunSync(context.Background(), snap, SweepSpec{Graph: "g", Ps: []float64{5}}) }()
	select {
	case rows := <-done:
		if rows[0].Error != "" {
			t.Errorf("RunSync after the panics: %+v", rows[0])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunSync after the panics never ran: a panicked row kept its worker slot")
	}
}

func TestManagerStats(t *testing.T) {
	m, _ := testManager(t, testRegistry(t), Options{Workers: 2})
	st, err := m.Submit(SweepSpec{Graph: "g", Ps: []float64{0, 0.5}}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID)
	if _, err := m.Submit(SweepSpec{Graph: "missing"}, ""); err != nil {
		t.Fatal(err)
	}
	// Wait for the failing job too.
	for _, s := range m.List() {
		waitTerminal(t, m, s.ID)
	}
	stats := m.Stats()
	if stats.Submitted != 2 || stats.Done != 1 || stats.Failed != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Workers != 2 || stats.Retained != 2 || stats.Active != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("missing resolve/cache must error")
	}
	if _, err := New(Options{Resolve: func(string) (*registry.Snapshot, error) { return nil, fmt.Errorf("x") }}); err == nil {
		t.Error("missing cache must error")
	}
}
