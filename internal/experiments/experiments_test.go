package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"d2pr/internal/dataset"
)

// testRunner generates small graphs and solves at a relaxed tolerance so the
// full experiment suite stays fast under `go test`.
func testRunner() *Runner {
	r := NewRunner(dataset.Config{Scale: 0.25, Seed: 42})
	r.Tol = 1e-8
	return r
}

func TestSweepConstants(t *testing.T) {
	ps := PSweep()
	if len(ps) != 17 || ps[0] != -4 || ps[len(ps)-1] != 4 {
		t.Errorf("PSweep = %v, want -4..4 step 0.5", ps)
	}
	if len(Alphas()) != 4 || len(Betas()) != 5 {
		t.Errorf("sweep sizes: alphas %d betas %d", len(Alphas()), len(Betas()))
	}
	if DefaultAlpha != 0.85 {
		t.Errorf("default alpha = %v", DefaultAlpha)
	}
}

func TestPeak(t *testing.T) {
	ps := []float64{-1, 0, 1}
	p, rho := Peak(ps, []float64{0.1, 0.5, 0.3})
	if p != 0 || rho != 0.5 {
		t.Errorf("Peak = %v/%v", p, rho)
	}
}

func TestRunnerCaching(t *testing.T) {
	r := testRunner()
	a, err := r.Graph(dataset.IMDBActorActor)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Graph(dataset.IMDBActorActor)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("runner must cache generated graphs")
	}
	if _, err := r.Graph("bogus"); err == nil {
		t.Error("unknown graph must error")
	}
}

func TestFigure1MatchesPaper(t *testing.T) {
	res, err := Figure1(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Sections[0].Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 neighbors of A", len(rows))
	}
	// Columns: dest, deg, p=0, p=2, p=-2. Paper values (B, C, D):
	want := [][]string{
		{"B", "2", "0.33", "0.18", "0.29"},
		{"C", "3", "0.33", "0.08", "0.64"},
		{"D", "1", "0.33", "0.73", "0.07"},
	}
	for i, w := range want {
		for j, cell := range w {
			if rows[i][j] != cell {
				t.Errorf("row %d col %d = %q, want %q", i, j, rows[i][j], cell)
			}
		}
	}
}

func TestTable1HighCorrelations(t *testing.T) {
	res, err := Table1(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Sections[0].Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, row := range rows {
		var rho float64
		if _, err := fmtSscan(row[1], &rho); err != nil {
			t.Fatalf("bad cell %q", row[1])
		}
		// The paper reports 0.848–0.997; the headline claim is "tightly
		// coupled", i.e. clearly above 0.7 on every graph.
		if rho < 0.7 {
			t.Errorf("%s: PageRank–degree ρ = %v, want ≥ 0.7", row[0], rho)
		}
	}
}

func TestTable2RankMovement(t *testing.T) {
	res, err := Table2(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Sections[0].Rows
	// First row is the top-degree node: rank at p=2 (col 5) must be much
	// worse than rank at p=-2 (col 3). Columns: id, degree, p=-4, -2, 0, 2, 4.
	var rTopBoost, rTopPen float64
	if _, err := fmtSscan(rows[0][3], &rTopBoost); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(rows[0][5], &rTopPen); err != nil {
		t.Fatal(err)
	}
	if rTopPen <= rTopBoost {
		t.Errorf("top-degree node: rank at p=2 (%v) must exceed rank at p=-2 (%v)", rTopPen, rTopBoost)
	}
	// Last row is a minimum-degree node: penalization must improve its rank.
	last := rows[len(rows)-1]
	var rLowBoost, rLowPen float64
	if _, err := fmtSscan(last[3], &rLowBoost); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(last[5], &rLowPen); err != nil {
		t.Fatal(err)
	}
	if rLowPen >= rLowBoost {
		t.Errorf("low-degree node: rank at p=2 (%v) must beat rank at p=-2 (%v)", rLowPen, rLowBoost)
	}
}

func TestTable3AllGraphs(t *testing.T) {
	res, err := Table3(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections[0].Rows) != 8 {
		t.Errorf("rows = %d, want 8", len(res.Sections[0].Rows))
	}
}

func TestFigure2GroupAShape(t *testing.T) {
	r := testRunner()
	res, err := Figure2(r)
	if err != nil {
		t.Fatal(err)
	}
	ps := PSweep()
	for _, sec := range res.Sections {
		rhos := parseColumn(t, sec, 1)
		peakP, peakRho := Peak(ps, rhos)
		conv := rhos[indexOfP(ps, 0)]
		if peakP <= 0 {
			t.Errorf("%s: peak at p=%v, want > 0 (Group A)", sec.Heading, peakP)
		}
		if peakRho <= conv {
			t.Errorf("%s: peak %v must beat conventional %v", sec.Heading, peakRho, conv)
		}
	}
}

func TestFigure3GroupBShape(t *testing.T) {
	r := testRunner()
	res, err := Figure3(r)
	if err != nil {
		t.Fatal(err)
	}
	ps := PSweep()
	for _, sec := range res.Sections {
		rhos := parseColumn(t, sec, 1)
		peakP, peakRho := Peak(ps, rhos)
		conv := rhos[indexOfP(ps, 0)]
		// Group B: conventional PageRank must be within noise of the best
		// (the paper's "p = 0 is optimal"); the sweep must not find a
		// decisively better operating point.
		if peakRho-conv > 0.05 {
			t.Errorf("%s: peak %v at p=%v far above conventional %v", sec.Heading, peakRho, peakP, conv)
		}
		// Strong penalization must hurt.
		if rhos[indexOfP(ps, 4)] >= conv {
			t.Errorf("%s: p=4 (%v) should fall below p=0 (%v)", sec.Heading, rhos[indexOfP(ps, 4)], conv)
		}
	}
}

func TestFigure4GroupCShape(t *testing.T) {
	r := testRunner()
	res, err := Figure4(r)
	if err != nil {
		t.Fatal(err)
	}
	ps := PSweep()
	for _, sec := range res.Sections {
		rhos := parseColumn(t, sec, 1)
		conv := rhos[indexOfP(ps, 0)]
		// Plateau: the p ∈ [-4, 0] segment stays within a narrow band.
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, p := range ps {
			if p <= 0 {
				if rhos[i] < lo {
					lo = rhos[i]
				}
				if rhos[i] > hi {
					hi = rhos[i]
				}
			}
		}
		if hi-lo > 0.12 {
			t.Errorf("%s: p≤0 plateau spread %v, want stable (paper §4.3.3)", sec.Heading, hi-lo)
		}
		// Cliff: strong penalization must collapse the correlation.
		if rhos[indexOfP(ps, 2)] > conv-0.15 {
			t.Errorf("%s: p=2 (%v) must fall well below p=0 (%v)", sec.Heading, rhos[indexOfP(ps, 2)], conv)
		}
	}
}

func TestFigure5SignPattern(t *testing.T) {
	res, err := Figure5(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 3 {
		t.Fatalf("sections = %d, want 3 groups", len(res.Sections))
	}
	// Group A section: all negative. Group C: all positive.
	for _, row := range res.Sections[0].Rows {
		var rho float64
		if _, err := fmtSscan(row[1], &rho); err != nil {
			t.Fatal(err)
		}
		if rho >= 0 {
			t.Errorf("group A %s: corr = %v, want negative", row[0], rho)
		}
	}
	for _, row := range res.Sections[2].Rows {
		var rho float64
		if _, err := fmtSscan(row[1], &rho); err != nil {
			t.Fatal(err)
		}
		if rho <= 0 {
			t.Errorf("group C %s: corr = %v, want positive", row[0], rho)
		}
	}
}

func TestBetaFigureEndpoints(t *testing.T) {
	// Figure 9 on one graph: the β=1 column must be constant in p (pure
	// connection strength ignores p entirely).
	r := testRunner()
	d, err := r.Graph(dataset.EpinionsCommenter)
	if err != nil {
		t.Fatal(err)
	}
	ps := []float64{-2, 0, 2}
	rhos, err := r.Sweep(d.Weighted, d.Significance, DefaultAlpha, 1.0, ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rhos); i++ {
		if math.Abs(rhos[i]-rhos[0]) > 1e-9 {
			t.Errorf("β=1 sweep must be flat: %v", rhos)
			break
		}
	}
}

func TestRegistryAndRunAll(t *testing.T) {
	reg := Registry()
	if len(reg) != 15 {
		t.Errorf("registry size = %d, want 15 (3 tables + 11 figures + ablations)", len(reg))
	}
	if _, err := ByID("fig2"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id must error")
	}
	ids := IDs()
	if len(ids) != len(reg) {
		t.Error("IDs() incomplete")
	}
	// Smoke-run the cheap experiments end to end through the renderer.
	r := testRunner()
	var buf bytes.Buffer
	for _, id := range []string{"fig1", "table3", "fig5"} {
		if err := RunAndRender(r, id, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"== fig1", "== table3", "== fig5", "epinions-product-product"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestSectionRendering(t *testing.T) {
	res := &Result{
		ID:    "x",
		Title: "demo",
		Sections: []Section{{
			Heading: "h",
			Columns: []string{"a", "long-column"},
			Rows:    [][]string{{"1", "2"}, {"333", "4"}},
			Notes:   []string{"note text"},
		}},
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "-- h --", "long-column", "note: note text"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// parseColumn extracts a float column from a section.
func parseColumn(t *testing.T, sec Section, col int) []float64 {
	t.Helper()
	out := make([]float64, len(sec.Rows))
	for i, row := range sec.Rows {
		if _, err := fmtSscan(row[col], &out[i]); err != nil {
			t.Fatalf("row %d col %d: %q", i, col, row[col])
		}
	}
	return out
}

// fmtSscan is a tiny indirection so tests read cleanly.
func fmtSscan(s string, v *float64) (int, error) {
	return sscan(s, v)
}
