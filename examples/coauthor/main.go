// Bibliographic analysis: two graphs from one DBLP-style dataset need
// opposite treatment. The author-author co-authorship graph is Group B
// (conventional PageRank already matches average-citation significance),
// while the article-article shared-author graph is Group C (citation counts
// are popularity-driven, so degree boosting is safe and penalization is
// catastrophic). The example also shows the α × p interplay of the paper's
// Figures 6–8.
//
// Run with: go run ./examples/coauthor
package main

import (
	"context"
	"fmt"
	"log"

	"d2pr"
	"d2pr/internal/dataset"
)

func main() {
	cfg := dataset.Config{Scale: 0.5, Seed: 11}
	for _, name := range []string{dataset.DBLPAuthorAuthor, dataset.DBLPArticleArticle} {
		data, err := dataset.GraphByName(cfg, name)
		if err != nil {
			log.Fatal(err)
		}
		g := data.Unweighted()
		eng := d2pr.NewEngine(g) // built once for both sweeps below
		st := d2pr.ComputeStats(g)
		fmt.Printf("=== %s (group %s) ===\n", data.Name, data.Group)
		fmt.Printf("%d nodes, %d edges, avg degree %.1f, median neighbor-degree stddev %.1f\n",
			st.Nodes, st.Edges, st.AvgDegree, st.MedianNeighborDegStdDev)
		fmt.Printf("significance: %s\n", data.SignificanceMeaning)

		// Sweep p at the default α.
		fmt.Printf("%-6s %s\n", "p", "corr(D2PR, significance)")
		for _, p := range []float64{-2, -1, 0, 1, 2} {
			res, err := eng.Rank(context.Background(), d2pr.Params{P: p})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-6.1f %+.4f\n", p, d2pr.Spearman(res.Scores, data.Significance))
		}

		// The α × p interplay (paper Figures 7 and 8): for Group B and C
		// graphs, larger α (longer walks) helps near the optimal p but stops
		// helping when p is pushed to the wrong side.
		fmt.Printf("\n%-8s", "alpha")
		ps := []float64{-1, 0, 1}
		for _, p := range ps {
			fmt.Printf("p=%-8.0f", p)
		}
		fmt.Println()
		for _, alpha := range []float64{0.5, 0.7, 0.85, 0.9} {
			fmt.Printf("%-8.2f", alpha)
			for _, p := range ps {
				res, err := eng.Rank(context.Background(), d2pr.Params{P: p, Options: d2pr.Options{Alpha: alpha}})
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("%-10.4f", d2pr.Spearman(res.Scores, data.Significance))
			}
			fmt.Println()
		}
		fmt.Println()
	}
	fmt.Println("Same dataset, opposite de-coupling needs — why p must be application-tuned.")
}
