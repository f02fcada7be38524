package experiments

import (
	"fmt"

	"d2pr/internal/core"
	"d2pr/internal/dataset"
	"d2pr/internal/graph"
	"d2pr/internal/stats"
)

// Panel membership of the paper's figure groups (§4.3).
var (
	groupAGraphs = []string{dataset.IMDBActorActor, dataset.EpinionsCommenter, dataset.EpinionsProductProd}
	groupBGraphs = []string{dataset.DBLPAuthorAuthor, dataset.IMDBMovieMovie}
	groupCGraphs = []string{dataset.DBLPArticleArticle, dataset.LastfmListener, dataset.LastfmArtistArtist}
)

// Figure1 reproduces Figure 1: the worked transition-probability example.
// Node A has neighbors B (degree 2), C (degree 3), and D (degree 1); the
// table shows the transition probabilities from A under p = 0, 2, -2.
func Figure1(r *Runner) (*Result, error) {
	// The sample graph of the paper: A-B, A-C, A-D, B-C, C-E, E-F.
	names := []string{"A", "B", "C", "D", "E", "F"}
	g, err := graph.FromEdges(graph.Undirected, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 4}, {4, 5},
	})
	if err != nil {
		return nil, err
	}
	ps := []float64{0, 2, -2}
	trans := make([]*core.Transition, len(ps))
	for i, p := range ps {
		trans[i] = core.DegreeDecoupled(g, p)
	}
	const a = int32(0)
	cols := []string{"dest v_j", "deg(v_j)"}
	for _, p := range ps {
		cols = append(cols, "P(A→v_j)@p="+fmtP(p))
	}
	var rows [][]string
	nb := g.Neighbors(a)
	for j := range nb {
		v := nb[j]
		row := []string{names[v], fmt.Sprint(g.Degree(v))}
		for i := range ps {
			row = append(row, fmt.Sprintf("%.2f", trans[i].ProbsFrom(a)[j]))
		}
		rows = append(rows, row)
	}
	return &Result{
		ID:    "fig1",
		Title: "Transition probabilities from node A under degree de-coupling",
		Sections: []Section{{
			Columns: cols,
			Rows:    rows,
			Notes: []string{
				"paper: p=0 → 0.33/0.33/0.33, p=2 → 0.18/0.08/0.74, p=-2 → 0.29/0.64/0.07",
			},
		}},
	}, nil
}

// groupFigure builds a Figures-2/3/4-style result: one section per graph in
// the group, sweeping p at the default α on the unweighted graphs.
func groupFigure(r *Runner, id, title string, names []string, expect string) (*Result, error) {
	ps := PSweep()
	res := &Result{ID: id, Title: title}
	for _, name := range names {
		d, err := r.Graph(name)
		if err != nil {
			return nil, err
		}
		g := d.Unweighted()
		rhos, err := r.Sweep(g, d.Significance, DefaultAlpha, 0, ps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sec := Section{
			Heading: fmt.Sprintf("%s (unweighted graph) — %s", d.Name, d.SignificanceMeaning),
			Columns: []string{"p", "corr(D2PR ranks, significance)"},
		}
		for i, p := range ps {
			sec.Rows = append(sec.Rows, []string{fmtP(p), fmtF(rhos[i])})
		}
		peakP, peakRho := Peak(ps, rhos)
		conv := rhos[indexOfP(ps, 0)]
		sec.Notes = append(sec.Notes,
			fmt.Sprintf("conventional PageRank (p=0): %s; peak %.4f at p=%s; expected: %s",
				fmtF(conv), peakRho, fmtP(peakP), expect))
		res.Sections = append(res.Sections, sec)
	}
	return res, nil
}

func indexOfP(ps []float64, p float64) int {
	for i, v := range ps {
		if v == p {
			return i
		}
	}
	return 0
}

// Figure2 reproduces Figure 2 (Application Group A: degree penalization
// helps; optimal p > 0).
func Figure2(r *Runner) (*Result, error) {
	return groupFigure(r, "fig2",
		"Group A: corr(D2PR, significance) vs p — penalization optimal",
		groupAGraphs, "peak at p≈0.5 (product-product: plateau for large p, negative at p=0)")
}

// Figure3 reproduces Figure 3 (Application Group B: conventional PageRank is
// ideal; optimal p = 0).
func Figure3(r *Runner) (*Result, error) {
	return groupFigure(r, "fig3",
		"Group B: corr(D2PR, significance) vs p — conventional PageRank optimal",
		groupBGraphs, "peak at p=0, sharp degradation for p<0")
}

// Figure4 reproduces Figure 4 (Application Group C: degree boosting helps;
// optimal p < 0).
func Figure4(r *Runner) (*Result, error) {
	return groupFigure(r, "fig4",
		"Group C: corr(D2PR, significance) vs p — boosting optimal",
		groupCGraphs, "peak near p≈-1, stable plateau for p<0")
}

// Figure5 reproduces Figure 5: the direct Spearman correlation between node
// degrees and application-specific significances for every data graph,
// grouped by application group.
func Figure5(r *Runner) (*Result, error) {
	all, err := r.AllGraphs()
	if err != nil {
		return nil, err
	}
	byGroup := map[dataset.Group][]*dataset.DataGraph{}
	for _, d := range all {
		byGroup[d.Group] = append(byGroup[d.Group], d)
	}
	res := &Result{
		ID:    "fig5",
		Title: "Correlation between node degrees and application significances",
	}
	for _, grp := range []dataset.Group{dataset.GroupA, dataset.GroupB, dataset.GroupC} {
		sec := Section{
			Heading: fmt.Sprintf("group %s (optimal %s)", grp, map[dataset.Group]string{
				dataset.GroupA: "p > 0", dataset.GroupB: "p = 0", dataset.GroupC: "p < 0",
			}[grp]),
			Columns: []string{"graph", "corr(degree, significance)"},
		}
		for _, d := range byGroup[grp] {
			g := d.Unweighted()
			deg := make([]float64, g.NumNodes())
			for i := range deg {
				deg[i] = float64(g.Degree(int32(i)))
			}
			rho := stats.Spearman(deg, d.Significance)
			sec.Rows = append(sec.Rows, []string{d.Name, fmtF(rho)})
		}
		res.Sections = append(res.Sections, sec)
	}
	res.Sections[len(res.Sections)-1].Notes = []string{
		"paper Figure 5: Group-A graphs negative (product-product most negative), Group B mildly positive, Group C positive",
	}
	return res, nil
}

// alphaFigure builds a Figures-6/7/8-style result: p sweep × α sweep on the
// unweighted graphs of one group.
func alphaFigure(r *Runner, id, title string, names []string) (*Result, error) {
	ps := PSweep()
	alphas := Alphas()
	res := &Result{ID: id, Title: title}
	for _, name := range names {
		d, err := r.Graph(name)
		if err != nil {
			return nil, err
		}
		g := d.Unweighted()
		cols := []string{"p"}
		series := make([][]float64, len(alphas))
		for ai, alpha := range alphas {
			cols = append(cols, fmt.Sprintf("rho@alpha=%.2f", alpha))
			series[ai], err = r.Sweep(g, d.Significance, alpha, 0, ps)
			if err != nil {
				return nil, fmt.Errorf("%s alpha=%v: %w", name, alpha, err)
			}
		}
		sec := Section{Heading: d.Name + " (unweighted graph)", Columns: cols}
		for i, p := range ps {
			row := []string{fmtP(p)}
			for ai := range alphas {
				row = append(row, fmtF(series[ai][i]))
			}
			sec.Rows = append(sec.Rows, row)
		}
		for ai, alpha := range alphas {
			pk, rho := Peak(ps, series[ai])
			sec.Notes = append(sec.Notes, fmt.Sprintf("alpha=%.2f: peak %.4f at p=%s", alpha, rho, fmtP(pk)))
		}
		res.Sections = append(res.Sections, sec)
	}
	return res, nil
}

// Figure6 reproduces Figure 6: p × α interplay for Group A.
func Figure6(r *Runner) (*Result, error) {
	return alphaFigure(r, "fig6", "Group A: relationship between p and alpha", groupAGraphs)
}

// Figure7 reproduces Figure 7: p × α interplay for Group B.
func Figure7(r *Runner) (*Result, error) {
	return alphaFigure(r, "fig7", "Group B: relationship between p and alpha", groupBGraphs)
}

// Figure8 reproduces Figure 8: p × α interplay for Group C.
func Figure8(r *Runner) (*Result, error) {
	return alphaFigure(r, "fig8", "Group C: relationship between p and alpha", groupCGraphs)
}

// betaFigure builds a Figures-9/10/11-style result: p sweep × β sweep on the
// weighted graphs of one group at the default α.
func betaFigure(r *Runner, id, title string, names []string) (*Result, error) {
	ps := PSweep()
	betas := Betas()
	res := &Result{ID: id, Title: title}
	for _, name := range names {
		d, err := r.Graph(name)
		if err != nil {
			return nil, err
		}
		g := d.Weighted
		cols := []string{"p"}
		series := make([][]float64, len(betas))
		for bi, beta := range betas {
			cols = append(cols, fmt.Sprintf("rho@beta=%.2f", beta))
			series[bi], err = r.Sweep(g, d.Significance, DefaultAlpha, beta, ps)
			if err != nil {
				return nil, fmt.Errorf("%s beta=%v: %w", name, beta, err)
			}
		}
		sec := Section{
			Heading: fmt.Sprintf("%s (weighted graph; edge weight: %s)", d.Name, d.EdgeMeaning),
			Columns: cols,
		}
		for i, p := range ps {
			row := []string{fmtP(p)}
			for bi := range betas {
				row = append(row, fmtF(series[bi][i]))
			}
			sec.Rows = append(sec.Rows, row)
		}
		for bi, beta := range betas {
			pk, rho := Peak(ps, series[bi])
			sec.Notes = append(sec.Notes, fmt.Sprintf("beta=%.2f: peak %.4f at p=%s", beta, rho, fmtP(pk)))
		}
		res.Sections = append(res.Sections, sec)
	}
	return res, nil
}

// Figure9 reproduces Figure 9: p × β interplay for Group A (weighted).
func Figure9(r *Runner) (*Result, error) {
	return betaFigure(r, "fig9", "Group A: relationship between p and beta (weighted graphs)", groupAGraphs)
}

// Figure10 reproduces Figure 10: p × β interplay for Group B (weighted).
func Figure10(r *Runner) (*Result, error) {
	return betaFigure(r, "fig10", "Group B: relationship between p and beta (weighted graphs)", groupBGraphs)
}

// Figure11 reproduces Figure 11: p × β interplay for Group C (weighted).
func Figure11(r *Runner) (*Result, error) {
	return betaFigure(r, "fig11", "Group C: relationship between p and beta (weighted graphs)", groupCGraphs)
}
