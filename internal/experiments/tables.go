package experiments

import (
	"context"
	"fmt"

	"d2pr/internal/core"
	"d2pr/internal/dataset"
	"d2pr/internal/graph"
	"d2pr/internal/stats"
)

// Table1 reproduces Table 1: Spearman's rank correlation between node-degree
// ranks and PageRank-score ranks for the listener (Last.fm friendship),
// article (DBLP co-author), and movie (IMDB co-contributor) graphs. The
// paper reports 0.988, 0.997, 0.848 — the headline evidence that PageRank is
// tightly coupled to degree.
func Table1(r *Runner) (*Result, error) {
	rows := [][]string{}
	for _, spec := range []struct{ label, name string }{
		{"Listener Graph (friendship edges, Last.fm)", dataset.LastfmListener},
		{"Article Graph (co-author edges, DBLP)", dataset.DBLPArticleArticle},
		{"Movie Graph (co-contributor edges, IMDB)", dataset.IMDBMovieMovie},
	} {
		d, err := r.Graph(spec.name)
		if err != nil {
			return nil, err
		}
		g := d.Unweighted()
		res, err := core.Rank(g, core.Params{Beta: 1, Options: r.solverOpts(DefaultAlpha)})
		if err != nil {
			return nil, err
		}
		deg := make([]float64, g.NumNodes())
		for i := range deg {
			deg[i] = float64(g.Degree(int32(i)))
		}
		rho := stats.Spearman(res.Scores, deg)
		rows = append(rows, []string{spec.label, fmtF(rho)})
	}
	return &Result{
		ID:    "table1",
		Title: "Spearman correlation between degree ranks and PageRank ranks",
		Sections: []Section{{
			Columns: []string{"data graph", "corr(PageRank, degree)"},
			Rows:    rows,
			Notes: []string{
				"paper reports 0.988 (listener), 0.997 (article), 0.848 (movie)",
			},
		}},
	}, nil
}

// Table2 reproduces Table 2: competition ranks of extreme-degree nodes under
// D2PR for de-coupling weights p ∈ {-4, -2, 0, 2, 4}. High-degree nodes sink
// as p grows and degree-1 nodes rise, mirroring the paper's sample rows.
func Table2(r *Runner) (*Result, error) {
	d, err := r.Graph(dataset.DBLPArticleArticle)
	if err != nil {
		return nil, err
	}
	g := d.Unweighted()
	ps := []float64{-4, -2, 0, 2, 4}
	eng := core.NewEngine(g)
	ranks := make([][]int, len(ps))
	for i, p := range ps {
		res, err := eng.Rank(context.Background(), core.Params{P: p, Options: r.solverOpts(DefaultAlpha)})
		if err != nil {
			return nil, err
		}
		ranks[i] = stats.CompetitionRanks(res.Scores)
	}
	top := graph.TopDegreeNodes(g, 2)
	bottom := graph.BottomDegreeNodes(g, 2)
	cols := []string{"node id", "node degree"}
	for _, p := range ps {
		cols = append(cols, "rank@p="+fmtP(p))
	}
	var rows [][]string
	addRow := func(u int32) {
		row := []string{fmt.Sprint(u), fmt.Sprint(g.Degree(u))}
		for i := range ps {
			row = append(row, fmt.Sprint(ranks[i][u]))
		}
		rows = append(rows, row)
	}
	for _, u := range top {
		addRow(u)
	}
	rows = append(rows, []string{"...", "...", "...", "...", "...", "...", "..."})
	for _, u := range bottom {
		addRow(u)
	}
	return &Result{
		ID:    "table2",
		Title: "Ranks of extreme-degree nodes for different de-coupling weights p",
		Sections: []Section{{
			Heading: d.Name + " (sample graph)",
			Columns: cols,
			Rows:    rows,
			Notes: []string{
				"p > 0 pushes high-degree nodes down the ranking; p < 0 pulls them up (paper Table 2)",
			},
		}},
	}, nil
}

// Table3 reproduces Table 3: structural statistics of all eight data graphs,
// including the median standard deviation of neighbors' degrees that the
// paper uses to explain Group-B vs Group-C sensitivity to p < 0.
func Table3(r *Runner) (*Result, error) {
	all, err := r.AllGraphs()
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, d := range all {
		s := graph.ComputeStats(d.Unweighted())
		rows = append(rows, []string{
			d.Dataset,
			d.Name,
			fmt.Sprint(s.Nodes),
			fmt.Sprint(s.Edges),
			fmt.Sprintf("%.2f", s.AvgDegree),
			fmt.Sprintf("%.2f", s.DegreeStdDev),
			fmt.Sprintf("%.2f", s.MedianNeighborDegStdDev),
		})
	}
	return &Result{
		ID:    "table3",
		Title: "Data sets and data graphs (structure statistics)",
		Sections: []Section{{
			Columns: []string{
				"data set", "graph", "# nodes", "# edges",
				"avg degree", "stddev degree", "median stddev of neighbors' degrees",
			},
			Rows: rows,
			Notes: []string{
				"Group-B graphs (movie-movie, author-author) should show low median neighbor-degree stddev;",
				"Group-C graphs (article-article, listener-listener, artist-artist) high — paper §4.3.2/4.3.3",
			},
		}},
	}, nil
}
