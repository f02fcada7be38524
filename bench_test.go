// Benchmarks that regenerate every table and figure of the paper (one
// Benchmark per artifact), plus ablation benches of the design choices:
// de-coupling through the transition or the teleport, power iteration or
// forward push, and D2PR against the classic baselines. Sweep worker counts
// are compared in internal/core (BenchmarkCoreSweepSequential against
// BenchmarkCoreSweepBlocked4/8), and so is log-space normalization against
// naive math.Pow (BenchmarkAblationLogspace).
//
// Run everything:  go test -bench=. -benchmem
// One artifact:    go test -bench=BenchmarkFigure2 -benchmem
//
// The benches run against scale-0.25 data graphs at tolerance 1e-8 so a full
// pass stays in CPU-minutes; `cmd/d2pr-experiments -scale 1` reproduces the
// artifacts at full size.
package d2pr_test

import (
	"io"
	"sync"
	"testing"

	"d2pr/internal/core"
	"d2pr/internal/dataset"
	"d2pr/internal/experiments"
	"d2pr/internal/stats"
)

var (
	runnerOnce sync.Once
	runner     *experiments.Runner
)

// benchRunner returns a shared Runner with all eight graphs pre-generated,
// so individual benches time the experiment, not the data generation.
func benchRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	runnerOnce.Do(func() {
		runner = experiments.NewRunner(dataset.Config{Scale: 0.25, Seed: 42})
		runner.Tol = 1e-8
		if _, err := runner.AllGraphs(); err != nil {
			panic(err)
		}
	})
	return runner
}

func benchExperiment(b *testing.B, id string) {
	r := benchRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAndRender(r, id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One bench per paper artifact.

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkFigure1(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFigure2(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFigure3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFigure4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "fig11") }

// Ablation: transition-matrix de-coupling (the paper's D2PR) versus the
// degree-biased-teleportation alternative of reference [2]. The reported
// "rho" metric is each method's best achievable significance correlation on
// the Group-A actor graph — the quantity the design chooses D2PR to win.
func BenchmarkAblationTeleport(b *testing.B) {
	r := benchRunner(b)
	d, err := r.Graph(dataset.IMDBActorActor)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Unweighted()
	opts := core.Options{Tol: 1e-8}
	b.Run("d2pr-transition", func(b *testing.B) {
		var best float64 = -1
		for i := 0; i < b.N; i++ {
			best = -1
			for _, p := range []float64{0.5, 1, 1.5, 2} {
				res, err := core.D2PR(g, p, opts)
				if err != nil {
					b.Fatal(err)
				}
				if rho := stats.Spearman(res.Scores, d.Significance); rho > best {
					best = rho
				}
			}
		}
		b.ReportMetric(best, "rho")
	})
	b.Run("biased-teleport", func(b *testing.B) {
		var best float64 = -1
		for i := 0; i < b.N; i++ {
			best = -1
			for _, q := range []float64{0.5, 1, 1.5, 2} {
				res, err := core.DegreeBiasedTeleport(g, q, opts)
				if err != nil {
					b.Fatal(err)
				}
				if rho := stats.Spearman(res.Scores, d.Significance); rho > best {
					best = rho
				}
			}
		}
		b.ReportMetric(best, "rho")
	})
}

// Ablation: exact power iteration versus forward-push for a personalized
// query at matched practical accuracy.
func BenchmarkAblationPush(b *testing.B) {
	r := benchRunner(b)
	d, err := r.Graph(dataset.DBLPAuthorAuthor)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Unweighted()
	tr := core.DegreeDecoupled(g, 0.5)
	tele := make([]float64, g.NumNodes())
	tele[0] = 1
	b.Run("power-iteration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(tr, core.Options{Tol: 1e-8, Teleport: tele}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("forward-push", func(b *testing.B) {
		e := core.EngineFor(g)
		for i := 0; i < b.N; i++ {
			if _, err := e.SolvePPR(tr, 0, core.ForwardPushOptions{Epsilon: 1e-8}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: D2PR at the group-optimal p against the classic significance
// baselines, reported as "rho" on the Group-A actor graph.
func BenchmarkAblationBaselines(b *testing.B) {
	r := benchRunner(b)
	d, err := r.Graph(dataset.IMDBActorActor)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Unweighted()
	run := func(name string, score func() ([]float64, error)) {
		b.Run(name, func(b *testing.B) {
			var rho float64
			for i := 0; i < b.N; i++ {
				s, err := score()
				if err != nil {
					b.Fatal(err)
				}
				rho = stats.Spearman(s, d.Significance)
			}
			b.ReportMetric(rho, "rho")
		})
	}
	run("d2pr-p1", func() ([]float64, error) {
		res, err := core.D2PR(g, 1, core.Options{Tol: 1e-8})
		if err != nil {
			return nil, err
		}
		return res.Scores, nil
	})
	run("pagerank", func() ([]float64, error) {
		res, err := core.PageRank(g, core.Options{Tol: 1e-8})
		if err != nil {
			return nil, err
		}
		return res.Scores, nil
	})
	run("degree", func() ([]float64, error) { return core.DegreeCentrality(g), nil })
	run("hits-auth", func() ([]float64, error) {
		res, err := core.HITS(g, core.Options{Tol: 1e-8})
		if err != nil {
			return nil, err
		}
		return res.Authorities, nil
	})
	run("betweenness-sampled", func() ([]float64, error) {
		return core.BetweennessSampled(g, 64, 9), nil
	})
	run("closeness-sampled", func() ([]float64, error) {
		return core.ClosenessCentrality(g, 64, 9), nil
	})
}

// Micro-benchmarks of the substrate hot paths.

func BenchmarkSolvePageRank(b *testing.B) {
	r := benchRunner(b)
	d, err := r.Graph(dataset.EpinionsCommenter)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Unweighted()
	b.ReportMetric(float64(g.NumArcs()), "arcs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PageRank(g, core.Options{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBuild measures the one-time pull-topology build (transpose
// + arc permutation + 1/outdeg table) that core.EngineFor caches per graph —
// the work every Solve used to repeat and the serving path now pays once.
func BenchmarkEngineBuild(b *testing.B) {
	r := benchRunner(b)
	d, err := r.Graph(dataset.EpinionsCommenter)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Unweighted()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewEngine(g)
	}
}

// BenchmarkSolveWarmEngine is the serving steady state: repeated solves on
// one graph through the cached engine (PageRank on an unweighted graph runs
// the implicit uniform transition — no per-arc array anywhere).
func BenchmarkSolveWarmEngine(b *testing.B) {
	r := benchRunner(b)
	d, err := r.Graph(dataset.EpinionsCommenter)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Unweighted()
	if _, err := core.PageRank(g, core.Options{Tol: 1e-8}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PageRank(g, core.Options{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransitionBuild(b *testing.B) {
	r := benchRunner(b)
	d, err := r.Graph(dataset.EpinionsCommenter)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Unweighted()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DegreeDecoupled(g, 1.5)
	}
}

func BenchmarkSpearman(b *testing.B) {
	r := benchRunner(b)
	d, err := r.Graph(dataset.EpinionsCommenter)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Unweighted()
	res, err := core.PageRank(g, core.Options{Tol: 1e-8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Spearman(res.Scores, d.Significance)
	}
}

func BenchmarkDatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dataset.AllGraphs(dataset.Config{Scale: 0.25, Seed: uint64(i + 1)})
	}
}
