// Trust-aware ranking on weighted graphs: the Epinions-style
// commenter-commenter graph, where edge weights count shared products and
// significance is the number of trust votes a commenter received. The
// example sweeps the β parameter of weighted D2PR (§3.2.3) — β = 1 is
// conventional connection-strength PageRank, β = 0 is full degree
// de-coupling — and then personalizes the ranking for one commenter.
//
// Run with: go run ./examples/trustrank
package main

import (
	"context"
	"fmt"
	"log"

	"d2pr"
	"d2pr/internal/dataset"
	"d2pr/internal/stats"
)

func main() {
	data, err := dataset.GraphByName(dataset.Config{Scale: 0.5, Seed: 23}, dataset.EpinionsCommenter)
	if err != nil {
		log.Fatal(err)
	}
	g := data.Weighted
	eng := d2pr.NewEngine(g) // every ranking below reuses its topology
	ctx := context.Background()
	fmt.Printf("%v (edge weight: %s)\n", g, data.EdgeMeaning)
	fmt.Printf("significance: %s\n\n", data.SignificanceMeaning)

	// β × p grid on the weighted graph (paper Figure 9(b)).
	ps := []float64{0, 0.5, 1, 2}
	fmt.Printf("%-8s", "beta")
	for _, p := range ps {
		fmt.Printf("p=%-8.1f", p)
	}
	fmt.Println()
	type best struct{ beta, p, rho float64 }
	bst := best{rho: -2}
	for _, beta := range []float64{0, 0.25, 0.5, 0.75, 1} {
		fmt.Printf("%-8.2f", beta)
		for _, p := range ps {
			res, err := eng.Rank(ctx, d2pr.Params{P: p, Beta: beta})
			if err != nil {
				log.Fatal(err)
			}
			rho := d2pr.Spearman(res.Scores, data.Significance)
			if rho > bst.rho {
				bst = best{beta, p, rho}
			}
			fmt.Printf("%-10.4f", rho)
		}
		fmt.Println()
	}
	fmt.Printf("\nbest grid point: beta=%.2f p=%.1f (corr %+0.4f)\n", bst.beta, bst.p, bst.rho)
	fmt.Println("note: β = 1 (pure connection strength) is not the best strategy — §4.5.")

	// Personalized trust neighborhood: rank commenters from the point of
	// view of one node, with degree penalization so prolific low-effort
	// commenters don't dominate.
	seed := int32(stats.TopK(data.Significance, 1)[0]) // most-trusted commenter
	res, err := eng.Rank(ctx, d2pr.Params{P: bst.p, Seeds: []int32{seed}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop-8 commenters most related to #%d (personalized D2PR, p=%.1f):\n", seed, bst.p)
	fmt.Printf("%-6s %-8s %-8s %-8s\n", "rank", "node", "degree", "score")
	shown := 0
	for _, u := range stats.TopK(res.Scores, 9) {
		if int32(u) == seed {
			continue // the seed itself always ranks first
		}
		shown++
		fmt.Printf("%-6d %-8d %-8d %-8.5f\n", shown, u, g.Degree(int32(u)), res.Scores[u])
		if shown == 8 {
			break
		}
	}
}
