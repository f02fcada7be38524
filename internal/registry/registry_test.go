package registry

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"d2pr/internal/core"
	"d2pr/internal/dataset"
	"d2pr/internal/graph"
	"d2pr/internal/lifecycle"
)

func mustGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(graph.Undirected, [][2]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fastRetry is a backoff policy small enough for tests to wait out.
var fastRetry = Options{Backoff: lifecycle.Config{Base: time.Millisecond, Max: 2 * time.Millisecond}}

// waitReady polls Get until the entry serves or the deadline passes.
func waitReady(t *testing.T, r *Registry, name string) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if snap, err := r.Get(name); err == nil {
			return snap
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("graph %q never became ready", name)
	return nil
}

func TestAddGraphAndGet(t *testing.T) {
	r := New()
	if err := r.AddGraph("g", mustGraph(t), []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Name != "g" || snap.Graph.NumNodes() != 3 || snap.Significance[2] != 3 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.Epoch != 1 {
		t.Errorf("first materialization epoch = %d, want 1", snap.Epoch)
	}
	if snap.LoadedAt.IsZero() {
		t.Error("snapshot must carry its load time")
	}
}

func TestAddGraphValidation(t *testing.T) {
	r := New()
	if err := r.AddGraph("empty", nil, nil); err == nil {
		t.Error("nil graph must error")
	}
	if err := r.AddGraph("g", mustGraph(t), []float64{1}); err == nil {
		t.Error("significance length mismatch must error")
	}
	if err := r.AddGraph("g", mustGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AddGraph("g", mustGraph(t), nil); err == nil {
		t.Error("duplicate name must error")
	}
}

func TestGetUnknown(t *testing.T) {
	r := New()
	_, err := r.Get("nope")
	if !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("err = %v, want ErrUnknownGraph", err)
	}
}

func TestLazyLoadOnce(t *testing.T) {
	r := New()
	var loads int32
	g := mustGraph(t)
	r.add(r.newEntry("lazy", "test", func() (loaded, error) {
		atomic.AddInt32(&loads, 1)
		return loaded{g: g}, nil
	}))
	if st := r.Statuses(); st[0].Loaded || st[0].State != lifecycle.StateLoading {
		t.Errorf("before first Get: status = %+v", st[0])
	}
	const n = 16
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			if _, err := r.Get("lazy"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if loads != 1 {
		t.Errorf("load ran %d times under concurrency, want 1", loads)
	}
	st := r.Statuses()
	if !st[0].Loaded || st[0].Nodes != 3 || st[0].State != lifecycle.StateReady || st[0].Epoch != 1 {
		t.Errorf("status = %+v", st[0])
	}
}

// TestTransientFailureHeals is the regression test for the old sticky-error
// behavior: a transient load failure must degrade the entry (fail-fast inside
// the backoff window), then heal on its own once the fault clears — not brick
// the entry until restart.
func TestTransientFailureHeals(t *testing.T) {
	r := NewWith(fastRetry)
	var loads int32
	var broken atomic.Bool
	broken.Store(true)
	g := mustGraph(t)
	r.add(r.newEntry("flaky", "test", func() (loaded, error) {
		atomic.AddInt32(&loads, 1)
		if broken.Load() {
			return loaded{}, errors.New("disk on fire")
		}
		return loaded{g: g}, nil
	}))

	_, err := r.Get("flaky")
	var serr *StateError
	if !errors.As(err, &serr) || serr.State != lifecycle.StateDegraded {
		t.Fatalf("first failed Get: err = %v, want StateError(degraded)", err)
	}
	if serr.RetryAt.IsZero() {
		t.Error("degraded StateError must expose the scheduled retry time")
	}
	st := r.Statuses()
	if st[0].Loaded || st[0].State != lifecycle.StateDegraded || st[0].Error == "" {
		t.Errorf("degraded status = %+v", st[0])
	}

	broken.Store(false)
	snap := waitReady(t, r, "flaky")
	if snap.Epoch != 1 || snap.Graph.NumNodes() != 3 {
		t.Errorf("healed snapshot = %+v", snap)
	}
	if st := r.Statuses(); st[0].State != lifecycle.StateReady || st[0].Error != "" {
		t.Errorf("healed status = %+v", st[0])
	}
}

// TestDegradedFailsFastInsideBackoff asserts Gets inside the backoff window
// return immediately without re-invoking the loader.
func TestDegradedFailsFastInsideBackoff(t *testing.T) {
	r := NewWith(Options{Backoff: lifecycle.Config{Base: time.Hour, Max: time.Hour}})
	var loads int32
	r.add(r.newEntry("bad", "test", func() (loaded, error) {
		atomic.AddInt32(&loads, 1)
		return loaded{}, errors.New("nope")
	}))
	for i := 0; i < 5; i++ {
		if _, err := r.Get("bad"); err == nil {
			t.Fatal("want error")
		}
	}
	if loads != 1 {
		t.Errorf("loader ran %d times inside the backoff window, want 1", loads)
	}
}

func TestPermanentFailureQuarantines(t *testing.T) {
	r := NewWith(fastRetry)
	var loads int32
	r.add(r.newEntry("corrupt", "test", func() (loaded, error) {
		atomic.AddInt32(&loads, 1)
		return loaded{}, lifecycle.Permanent(errors.New("parse error at line 3"))
	}))
	_, err := r.Get("corrupt")
	var serr *StateError
	if !errors.As(err, &serr) || serr.State != lifecycle.StateQuarantined {
		t.Fatalf("err = %v, want StateError(quarantined)", err)
	}
	// Quarantine means no automatic retries, ever — even past any backoff.
	time.Sleep(10 * time.Millisecond)
	if _, err := r.Get("corrupt"); err == nil {
		t.Fatal("quarantined entry must keep failing")
	}
	if loads != 1 {
		t.Errorf("quarantined loader ran %d times, want 1", loads)
	}
	if st := r.Statuses(); st[0].State != lifecycle.StateQuarantined {
		t.Errorf("status = %+v", st[0])
	}
}

func TestRetryBudgetExhaustionQuarantines(t *testing.T) {
	r := NewWith(Options{Backoff: lifecycle.Config{
		Base: time.Nanosecond, Max: time.Nanosecond, MaxRetries: 2,
	}})
	var loads int32
	r.add(r.newEntry("hopeless", "test", func() (loaded, error) {
		atomic.AddInt32(&loads, 1)
		return loaded{}, errors.New("still transient, allegedly")
	}))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, err := r.Get("hopeless")
		var serr *StateError
		if errors.As(err, &serr) && serr.State == lifecycle.StateQuarantined {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := atomic.LoadInt32(&loads); got != 2 {
		t.Errorf("loader ran %d times before quarantine, want MaxRetries=2", got)
	}
}

func TestReloadSwapsEpoch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.tsv")
	if err := os.WriteFile(path, []byte("0\t1\n1\t2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := r.AddFile("g", path, graph.Undirected, false, ""); err != nil {
		t.Fatal(err)
	}
	old, err := r.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if old.Epoch != 1 || old.Checksum == "" {
		t.Fatalf("first snapshot = epoch %d, checksum %q", old.Epoch, old.Checksum)
	}

	// Grow the file and reload: the swap must bump the epoch and change the
	// checksum, while the old snapshot stays fully usable for in-flight work.
	if err := os.WriteFile(path, []byte("0\t1\n1\t2\n2\t3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := r.Reload("g")
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 2 || st.State != lifecycle.StateReady || st.Nodes != 4 {
		t.Errorf("post-reload status = %+v", st)
	}
	fresh, err := r.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Epoch != 2 || fresh.Checksum == old.Checksum {
		t.Errorf("fresh = epoch %d checksum %q, old checksum %q", fresh.Epoch, fresh.Checksum, old.Checksum)
	}
	if old.Graph.NumNodes() != 3 || old.Engine() == nil {
		t.Error("pinned old snapshot must remain usable after the swap")
	}
}

// TestReloadFailureKeepsServing: a reload that hits a corrupted file
// quarantines the entry, but requests keep getting the last good snapshot —
// and a manual reload after the file is fixed re-arms it.
// TestSnapshotEngineDiesWithSnapshot: the snapshot owns its engine, so once
// the registry and every snapshot that used it are gone, the engine — and the
// graph it points to — must be collectable, not pinned by a process-wide
// cache.
func TestSnapshotEngineDiesWithSnapshot(t *testing.T) {
	engine := func() weak.Pointer[core.Engine] {
		r := New()
		if err := r.AddGraph("g", mustGraph(t), nil); err != nil {
			t.Fatal(err)
		}
		snap, err := r.Get("g")
		if err != nil {
			t.Fatal(err)
		}
		e := snap.Engine()
		if _, err := e.Solve(core.Uniform(snap.Graph), core.Options{}); err != nil {
			t.Fatal(err)
		}
		return weak.Make(e)
	}()
	// The engine's used sync.Pools sit on the runtime's pool list (interior
	// pointers into the engine) until two collections have passed.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if engine.Value() != nil {
		t.Fatal("the engine outlived its registry and snapshot")
	}
}

func TestReloadFailureKeepsServing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.tsv")
	if err := os.WriteFile(path, []byte("0\t1\n1\t2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := r.AddFile("g", path, graph.Undirected, false, ""); err != nil {
		t.Fatal(err)
	}
	old, err := r.Get("g")
	if err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(path, []byte("0\tnot-a-node\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, rerr := r.Reload("g")
	if rerr == nil {
		t.Fatal("reloading a corrupt file must error")
	}
	if st.State != lifecycle.StateQuarantined {
		t.Errorf("corrupt reload state = %s, want quarantined", st.State)
	}
	if !st.Loaded || st.Epoch != 1 || st.Error == "" {
		t.Errorf("status after failed reload = %+v", st)
	}
	snap, err := r.Get("g")
	if err != nil || snap != old {
		t.Fatalf("Get after failed reload = %v, %v; want the prior snapshot", snap, err)
	}

	if err := os.WriteFile(path, []byte("0\t1\n1\t2\n2\t0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = r.Reload("g")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != lifecycle.StateReady || st.Epoch != 2 {
		t.Errorf("re-armed reload status = %+v", st)
	}
}

func TestTryReloadPolicy(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.tsv")
	if err := os.WriteFile(path, []byte("0\t1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := r.AddFile("g", path, graph.Undirected, false, ""); err != nil {
		t.Fatal(err)
	}

	// Unmaterialized entries are skipped: auto-reload must not defeat lazy
	// loading.
	if _, attempted, err := r.TryReload("g"); err != nil || attempted {
		t.Fatalf("TryReload on unloaded entry: attempted=%v err=%v", attempted, err)
	}
	if _, err := r.Get("g"); err != nil {
		t.Fatal(err)
	}
	st, attempted, err := r.TryReload("g")
	if err != nil || !attempted || st.Epoch != 2 {
		t.Fatalf("TryReload on loaded entry: attempted=%v epoch=%d err=%v", attempted, st.Epoch, err)
	}

	// Quarantined entries are skipped: quarantine is an operator decision.
	if err := os.WriteFile(path, []byte("junk junk junk junk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Reload("g"); err == nil {
		t.Fatal("corrupt reload must error")
	}
	if _, attempted, _ := r.TryReload("g"); attempted {
		t.Error("TryReload must not touch a quarantined entry")
	}
}

func TestAddDataset(t *testing.T) {
	r := New()
	if err := r.AddDataset(dataset.IMDBActorActor, dataset.Config{Scale: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddDataset("bogus", dataset.Config{}); err == nil {
		t.Error("unknown dataset names must fail at add time")
	}
	snap, err := r.Get(dataset.IMDBActorActor)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Graph.NumNodes() == 0 || snap.Significance == nil {
		t.Errorf("dataset snapshot = %+v", snap)
	}
}

func TestAddAllDatasets(t *testing.T) {
	r := New()
	if err := r.AddAllDatasets(dataset.Config{Scale: 0.05}); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Len(), len(dataset.GraphNames()); got != want {
		t.Errorf("len = %d, want %d", got, want)
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("plain.tsv", "0\t1\n1\t2\n")
	write("heavy.tsv", "# weighted\n0\t1\t2.5\n1\t2\t1.0\n")
	write("web.directed.txt", "0\t1\n1\t2\n2\t0\n")
	write("plain.sig", "0\t0.5\n1\t0.25\n2\t0.25\n")
	write("notes.md", "ignored")

	r := New()
	n, err := r.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("registered %d graphs, want 3 (names: %v)", n, r.Names())
	}

	plain, err := r.Get("plain")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Graph.Weighted() || plain.Significance == nil {
		t.Errorf("plain = %+v", plain)
	}
	heavy, err := r.Get("heavy")
	if err != nil {
		t.Fatal(err)
	}
	if !heavy.Graph.Weighted() {
		t.Error("heavy.tsv must be sniffed as weighted")
	}
	if w, ok := heavy.Graph.EdgeWeight(0, 1); !ok || w != 2.5 {
		t.Errorf("heavy weight(0,1) = %v, %v", w, ok)
	}
	web, err := r.Get("web")
	if err != nil {
		t.Fatal(err)
	}
	if !web.Graph.Directed() {
		t.Error(".directed infix must mark the graph directed")
	}
}

// TestLoadDirPartialFailure: one unreadable file in the directory must not
// abort the rest — the healthy graphs register and count, the broken one is
// registered degraded (visible in Statuses, excluded from the count), and it
// heals once the file becomes readable.
func TestLoadDirPartialFailure(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "good.tsv"), []byte("0\t1\n1\t2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A symlink to a missing target is unreadable for sniffing and loading
	// alike (and stays so even when tests run as root, unlike chmod 0).
	target := filepath.Join(dir, "ghost-target")
	if err := os.Symlink(target, filepath.Join(dir, "ghost.tsv")); err != nil {
		t.Skipf("symlink unsupported: %v", err)
	}

	r := NewWith(fastRetry)
	n, err := r.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("count = %d, want 1 (only the cleanly registered graph)", n)
	}
	if got := r.Names(); len(got) != 2 {
		t.Fatalf("names = %v, want both graphs registered", got)
	}
	if _, err := r.Get("good"); err != nil {
		t.Errorf("healthy sibling must load: %v", err)
	}
	var ghost Status
	for _, st := range r.Statuses() {
		if st.Name == "ghost" {
			ghost = st
		}
	}
	if ghost.State != lifecycle.StateDegraded || ghost.Error == "" || ghost.Loaded {
		t.Errorf("ghost status = %+v, want degraded with the read error", ghost)
	}

	// The file appears: the deferred sniff + load path must heal the entry.
	if err := os.WriteFile(target, []byte("0\t1\t2.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := waitReady(t, r, "ghost")
	if !snap.Graph.Weighted() {
		t.Error("healed ghost must be sniffed weighted from the now-readable file")
	}
}

func TestLoadDirMissing(t *testing.T) {
	r := New()
	if _, err := r.LoadDir("/no/such/dir"); err == nil {
		t.Error("missing dir must error")
	}
}
