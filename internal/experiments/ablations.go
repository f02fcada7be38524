package experiments

import (
	"fmt"

	"d2pr/internal/core"
	"d2pr/internal/dataset"
	"d2pr/internal/stats"
)

// Ablations compares two design choices of the paper on the Group-A actor
// graph, where de-coupling matters most:
//
//  1. D2PR's transition-matrix modification vs the degree-biased
//     teleportation of the paper's reference [2];
//  2. D2PR at its operating point vs the classic significance baselines
//     (degree, HITS authorities, sampled closeness/betweenness).
//
// Each correlation carries a 95% bootstrap confidence interval so that
// "method X beats method Y" claims are separable from sampling noise.
func Ablations(r *Runner) (*Result, error) {
	d, err := r.Graph(dataset.IMDBActorActor)
	if err != nil {
		return nil, err
	}
	g := d.Unweighted()
	opts := r.solverOpts(DefaultAlpha)

	res := &Result{ID: "ablations", Title: "Design-choice ablations (Group-A actor graph)"}

	// 1+2: significance prediction quality per method.
	sec := Section{
		Heading: "significance correlation with 95% bootstrap CI",
		Columns: []string{"method", "corr(scores, significance)"},
	}
	addRow := func(name string, scores []float64) error {
		ci, err := stats.SpearmanBootstrap(scores, d.Significance, 0.05, 400, 7)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		sec.Rows = append(sec.Rows, []string{name, ci.String()})
		return nil
	}
	for _, p := range []float64{0.5, 1, 1.5} {
		dec, err := core.D2PR(g, p, opts)
		if err != nil {
			return nil, err
		}
		if err := addRow(fmt.Sprintf("d2pr p=%g", p), dec.Scores); err != nil {
			return nil, err
		}
	}
	for _, q := range []float64{1, 2} {
		bt, err := core.DegreeBiasedTeleport(g, q, opts)
		if err != nil {
			return nil, err
		}
		if err := addRow(fmt.Sprintf("biased-teleport q=%g (ref [2])", q), bt.Scores); err != nil {
			return nil, err
		}
	}
	pr, err := core.PageRank(g, opts)
	if err != nil {
		return nil, err
	}
	if err := addRow("pagerank (p=0)", pr.Scores); err != nil {
		return nil, err
	}
	if err := addRow("degree centrality", core.DegreeCentrality(g)); err != nil {
		return nil, err
	}
	hits, err := core.HITS(g, opts)
	if err != nil {
		return nil, err
	}
	if err := addRow("hits authorities", hits.Authorities); err != nil {
		return nil, err
	}
	if err := addRow("closeness (sampled)", core.ClosenessCentrality(g, 128, 7)); err != nil {
		return nil, err
	}
	if err := addRow("betweenness (sampled)", core.BetweennessSampled(g, 128, 7)); err != nil {
		return nil, err
	}
	sec.Notes = append(sec.Notes,
		"transition-matrix de-coupling should dominate; every degree-aligned baseline inherits PageRank's failure on Group-A data")
	res.Sections = append(res.Sections, sec)
	return res, nil
}
