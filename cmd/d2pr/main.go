// Command d2pr ranks the nodes of an edge-list graph with the D2PR family
// and baseline centralities.
//
// Usage:
//
//	d2pr [flags] <edgelist-file>
//	d2pr [flags] -          # read the edge list from stdin
//
// The edge list is one arc per line: "<src> <dst> [<weight>]"; '#' starts a
// comment. Output is "<node>\t<score>" for every node, or a top-k table with
// -top.
//
// Examples:
//
//	d2pr -p 0.5 graph.tsv                 # D2PR with p = 0.5
//	d2pr -algo pagerank -top 10 graph.tsv # conventional PageRank, top 10
//	d2pr -directed -weighted -p 1 -beta 0.25 graph.tsv
//	d2pr -algo hits graph.tsv             # HITS authorities
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"d2pr"
	"d2pr/internal/core"
	"d2pr/internal/graph"
	"d2pr/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "d2pr: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("d2pr", flag.ContinueOnError)
	var (
		algo     = fs.String("algo", "d2pr", "algorithm: d2pr|pagerank|ppr|hits|degree|closeness|betweenness|eigenvector")
		p        = fs.Float64("p", 0, "degree de-coupling weight (d2pr)")
		beta     = fs.Float64("beta", 0, "connection-strength mix in [0,1] (weighted d2pr)")
		alpha    = fs.Float64("alpha", 0.85, "residual probability")
		tol      = fs.Float64("tol", 1e-10, "convergence tolerance")
		maxIter  = fs.Int("maxiter", 500, "iteration cap")
		directed = fs.Bool("directed", false, "treat the edge list as directed")
		weighted = fs.Bool("weighted", false, "read a weight column")
		seeds    = fs.String("seeds", "", "comma-separated seed nodes for personalization (d2pr and ppr)")
		top      = fs.Int("top", 0, "print only the top-k nodes as a table")
		degCorr  = fs.Bool("degcorr", false, "also print Spearman correlation with node degree")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one input file (or '-'), got %d args", fs.NArg())
	}
	if *seeds != "" && *algo != "d2pr" && *algo != "ppr" {
		return fmt.Errorf("-seeds personalizes -algo d2pr and ppr only, not %s", *algo)
	}
	var in io.Reader
	if fs.Arg(0) == "-" {
		in = stdin
	} else {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	kind := graph.Undirected
	if *directed {
		kind = graph.Directed
	}
	g, err := graph.ReadEdgeList(in, kind, *weighted)
	if err != nil {
		return err
	}
	opts := core.Options{Alpha: *alpha, Tol: *tol, MaxIter: *maxIter}

	var scores []float64
	switch *algo {
	case "d2pr":
		params := d2pr.Params{P: *p, Beta: *beta, Options: opts}
		if *seeds != "" {
			params.Seeds, err = parseSeeds(*seeds)
			if err != nil {
				return err
			}
		}
		res, err := d2pr.Rank(g, params)
		if err != nil {
			return err
		}
		scores = res.Scores
		fmt.Fprintf(os.Stderr, "converged=%v iterations=%d residual=%.3g\n",
			res.Converged, res.Iterations, res.Residual)
	case "ppr":
		seedList, err := parseSeeds(*seeds)
		if err != nil {
			return err
		}
		res, err := core.PersonalizedPageRank(g, seedList, opts)
		if err != nil {
			return err
		}
		scores = res.Scores
	default:
		scores, err = core.CentralityByName(g, *algo, opts)
		if err != nil {
			return err
		}
	}

	if *degCorr {
		fmt.Fprintf(os.Stderr, "corr(scores, degree) = %.4f\n", d2pr.DegreeCorrelation(g, scores))
	}
	if *top > 0 {
		fmt.Fprintln(stdout, "rank\tnode\tdegree\tscore")
		for i, u := range stats.TopK(scores, *top) {
			fmt.Fprintf(stdout, "%d\t%d\t%d\t%.6g\n", i+1, u, g.Degree(int32(u)), scores[u])
		}
		return nil
	}
	return graph.WriteScores(stdout, scores)
}

// parseSeeds parses a comma-separated list of node ids, ignoring spaces
// around each id. An id outside [0, 2³¹) is an error rather than a wrap
// onto another node.
func parseSeeds(s string) ([]int32, error) {
	var out []int32
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.ParseInt(strings.Trim(part, " "), 10, 32)
		if err != nil || id < 0 {
			return nil, fmt.Errorf("bad seed %q in %q", part, s)
		}
		out = append(out, int32(id))
	}
	return out, nil
}
