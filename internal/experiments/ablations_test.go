package experiments

import (
	"strings"
	"testing"
)

func TestAblationsD2PRDominates(t *testing.T) {
	res, err := Ablations(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 1 {
		t.Fatalf("sections = %d, want 1", len(res.Sections))
	}
	// Parse "point [lo, hi]" cells; collect the best D2PR point and the
	// best non-D2PR point.
	var bestD2PR, bestOther float64 = -2, -2
	for _, row := range res.Sections[0].Rows {
		var point float64
		if _, err := sscan(strings.Fields(row[1])[0], &point); err != nil {
			t.Fatalf("bad cell %q", row[1])
		}
		if strings.HasPrefix(row[0], "d2pr") {
			if point > bestD2PR {
				bestD2PR = point
			}
		} else if point > bestOther {
			bestOther = point
		}
	}
	if bestD2PR <= bestOther {
		t.Errorf("best D2PR %v must beat best baseline %v on Group-A data", bestD2PR, bestOther)
	}
	if bestD2PR <= 0 {
		t.Errorf("best D2PR %v must be positive", bestD2PR)
	}
}

func TestAlphaFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("4-alpha sweep over three graphs")
	}
	res, err := Figure6(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 3 {
		t.Fatalf("fig6 sections = %d, want 3 Group-A graphs", len(res.Sections))
	}
	for _, sec := range res.Sections {
		if len(sec.Columns) != 5 { // p + 4 alphas
			t.Errorf("%s: columns = %d, want 5", sec.Heading, len(sec.Columns))
		}
		if len(sec.Rows) != 17 {
			t.Errorf("%s: rows = %d, want 17 p values", sec.Heading, len(sec.Rows))
		}
		// Grouping must be preserved across α (paper §4.4): the peak stays
		// at p > 0 for every α column.
		ps := PSweep()
		for col := 1; col <= 4; col++ {
			rhos := parseColumn(t, sec, col)
			if pk, _ := Peak(ps, rhos); pk <= 0 {
				t.Errorf("%s col %d: peak at p=%v, want > 0 for all α", sec.Heading, col, pk)
			}
		}
	}
}

func TestBetaFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("5-beta sweep over three graphs")
	}
	res, err := Figure9(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	ps := PSweep()
	for _, sec := range res.Sections {
		if len(sec.Columns) != 6 { // p + 5 betas
			t.Fatalf("%s: columns = %d, want 6", sec.Heading, len(sec.Columns))
		}
		// β=0 (full de-coupling, col 1) must reach a higher peak than β=1
		// (pure connection strength, col 5) on Group-A weighted graphs —
		// the paper's §4.5 headline.
		_, peak0 := Peak(ps, parseColumn(t, sec, 1))
		_, peak1 := Peak(ps, parseColumn(t, sec, 5))
		if peak0 <= peak1 {
			t.Errorf("%s: β=0 peak %v must beat β=1 peak %v", sec.Heading, peak0, peak1)
		}
	}
}
