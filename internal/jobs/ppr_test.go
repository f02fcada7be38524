package jobs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"d2pr/internal/pprcache"
	"d2pr/internal/rankcache"
	"d2pr/internal/registry"
)

// testPPRManager builds a manager with a PPR cache wired in.
func testPPRManager(t *testing.T, opts Options) (*Manager, *rankcache.Cache[[]pprcache.Entry]) {
	m, ppr, _ := testPPRManagerReg(t, opts)
	return m, ppr
}

// testPPRManagerReg additionally exposes the backing registry, for tests that
// need the snapshot (epoch-qualified cache keys).
func testPPRManagerReg(t *testing.T, opts Options) (*Manager, *rankcache.Cache[[]pprcache.Entry], *registry.Registry) {
	t.Helper()
	ppr := rankcache.NewAdmitting[[]pprcache.Entry](64)
	opts.PPRCache = ppr
	reg := testRegistry(t)
	m, _ := testManager(t, reg, opts)
	return m, ppr, reg
}

func TestPPRBatchValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sp      PPRBatchSpec
		ok      bool
		errHint string
	}{
		{"ok", PPRBatchSpec{Graph: "g", Seeds: []int32{0, 1, 2}}, true, ""},
		{"no graph", PPRBatchSpec{Seeds: []int32{0}}, false, "no graph"},
		{"no seeds", PPRBatchSpec{Graph: "g"}, false, "no seeds"},
		{"duplicate seed", PPRBatchSpec{Graph: "g", Seeds: []int32{0, 3, 0}}, false, "duplicate seed 0"},
		{"negative seed", PPRBatchSpec{Graph: "g", Seeds: []int32{1, -4}}, false, "is negative"},
		{"bad alpha", PPRBatchSpec{Graph: "g", Seeds: []int32{0}, Alpha: 1.5}, false, "alpha"},
		{"bad eps", PPRBatchSpec{Graph: "g", Seeds: []int32{0}, Epsilon: 0.5}, false, "eps"},
		{"bad k", PPRBatchSpec{Graph: "g", Seeds: []int32{0}, K: -1}, false, "k"},
		{"oversized", PPRBatchSpec{Graph: "g", Seeds: make([]int32, MaxGridSize+1)}, false, "exceeds max"},
	} {
		if tc.name == "oversized" {
			for i := range tc.sp.Seeds {
				tc.sp.Seeds[i] = int32(i)
			}
		}
		err := tc.sp.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil && tc.errHint != "" && !strings.Contains(err.Error(), tc.errHint) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errHint)
		}
	}
}

func TestPPRBatchRunsToCompletion(t *testing.T) {
	m, ppr, reg := testPPRManagerReg(t, Options{Workers: 2, TTL: time.Minute})
	snap, err := reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.SubmitPPR(PPRBatchSpec{Graph: "g", Seeds: []int32{0, 3, 5}, K: 4}, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.Algo != AlgoPPR || st.Total != 3 {
		t.Fatalf("submitted status %+v", st)
	}
	st = waitTerminal(t, m, st.ID)
	if st.State != StateDone || st.Completed != 3 || st.Failed != 0 {
		t.Fatalf("terminal status %+v", st)
	}
	rows, _, err := m.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	seedsSeen := map[int32]bool{}
	for _, row := range rows {
		if row.Seed == nil || row.PPRSpec == nil {
			t.Fatalf("cohort row missing seed/spec: %+v", row)
		}
		if row.Error != "" {
			t.Fatalf("row for seed %d failed: %s", *row.Seed, row.Error)
		}
		seedsSeen[*row.Seed] = true
		if len(row.Top) == 0 || len(row.Top) > 4 {
			t.Errorf("seed %d: %d top rows, want 1..4", *row.Seed, len(row.Top))
		}
		// The seed must appear in its own personalized top-k (at α=0.85 a
		// low-degree seed's top node may legitimately be its hub neighbor).
		found := false
		for _, e := range row.Top {
			if e.Node == *row.Seed {
				found = true
			}
		}
		if !found {
			t.Errorf("seed %d absent from its own top-%d", *row.Seed, len(row.Top))
		}
		if row.Top[0].Rank != 1 {
			t.Errorf("seed %d: first row rank %d", *row.Seed, row.Top[0].Rank)
		}
		// The job's config string must be the synchronous path's cache key.
		if want := string(row.PPRSpec.CacheKey()); row.Config != want {
			t.Errorf("config %q != spec cache key %q", row.Config, want)
		}
	}
	if len(seedsSeen) != 3 {
		t.Errorf("rows cover %d distinct seeds, want 3", len(seedsSeen))
	}
	// Every cohort result must be resident in the PPR cache afterwards.
	if got := ppr.Len(); got != 3 {
		t.Errorf("ppr cache holds %d entries after cohort, want 3", got)
	}
	for _, row := range rows {
		if _, ok := ppr.Lookup(row.PPRSpec.CacheKeyFor(snap)); !ok {
			t.Errorf("cohort key %q not in cache", row.Config)
		}
	}
}

func TestPPRBatchWarmsCacheForRepeatCohort(t *testing.T) {
	m, _ := testPPRManager(t, Options{Workers: 2, TTL: time.Minute})
	spec := PPRBatchSpec{Graph: "g", Seeds: []int32{1, 2}}
	st, err := m.SubmitPPR(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID)
	st2, err := m.SubmitPPR(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st2.ID)
	rows, _, err := m.Results(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if !row.Cached {
			t.Errorf("repeat cohort seed %d recomputed", *row.Seed)
		}
	}
}

func TestPPRBatchFailuresSurface(t *testing.T) {
	m, _ := testPPRManager(t, Options{Workers: 1, TTL: time.Minute})
	// Unknown graph: the job fails at resolve time.
	st, err := m.SubmitPPR(PPRBatchSpec{Graph: "missing", Seeds: []int32{0}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if st = waitTerminal(t, m, st.ID); st.State != StateFailed {
		t.Errorf("unknown graph: state %s, want failed", st.State)
	}
	// Seed beyond the real node count: accepted at submit (the bound needs
	// the graph), failed at run.
	st, err = m.SubmitPPR(PPRBatchSpec{Graph: "g", Seeds: []int32{0, 99}}, "")
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, m, st.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "seed 99 out of range") {
		t.Errorf("out-of-range cohort: %+v", st)
	}
}

func TestPPRBatchRequiresCache(t *testing.T) {
	m, _ := testManager(t, testRegistry(t), Options{}) // no PPRCache
	if _, err := m.SubmitPPR(PPRBatchSpec{Graph: "g", Seeds: []int32{0}}, ""); err == nil {
		t.Fatal("SubmitPPR without a PPR cache must fail")
	}
}

func TestPPRBatchCancelMidCohort(t *testing.T) {
	m, _ := testPPRManager(t, Options{Workers: 1, TTL: time.Minute})
	started := make(chan string)
	release := make(chan struct{})
	var once sync.Once
	m.hookBeforeRow = func(int) {
		once.Do(func() {
			started <- "first"
			<-release
		})
	}
	seeds := make([]int32, 6)
	for i := range seeds {
		seeds[i] = int32(i)
	}
	st, err := m.SubmitPPR(PPRBatchSpec{Graph: "g", Seeds: seeds}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	st = waitTerminal(t, m, st.ID)
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	if st.Completed >= len(seeds) {
		t.Errorf("all %d seeds completed despite cancellation", st.Completed)
	}
}
