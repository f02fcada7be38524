package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
)

// steady is the steadiness report: it runs one workload --runs times per
// set, each run in a fresh process with its own seed, alternating between
// the sets, and prints per end-to-end metric the median, the quartiles
// (as Python's statistics.quantiles(values, n=4) gives them), the spread
// between the quartiles as a share of the median, and the max/min spread.
// With two sets it also prints how far the second set's median moved from
// the first's; every end-to-end metric improves downward, so positive is
// worse.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "runs per set")
	sets := fs.Int("sets", 1, "sets of runs, run alternately")
	seed := fs.Uint64("seed", 1, "seed of the first run; each run takes the next")
	seconds := fs.Float64("seconds", 15, "nominal length of each run's measured phase")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(workloadNames(), *workload) || *runs < 1 || *sets < 1 {
		fs.Usage()
		return fmt.Errorf("bad arguments")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make([]map[string][]float64, *sets)
	for s := range values {
		values[s] = map[string][]float64{}
	}
	for i := 0; i < *runs; i++ {
		for s := 0; s < *sets; s++ {
			runSeed := *seed + uint64(s**runs+i)
			var stdout bytes.Buffer
			cmd := exec.Command(self, "--workload", *workload, "--seed", strconv.FormatUint(runSeed, 10),
				"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("run with seed %d: %w\n%s", runSeed, err, stdout.String())
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var out output
			if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
				return fmt.Errorf("run with seed %d: %w", runSeed, err)
			}
			if !out.Correct {
				return fmt.Errorf("run with seed %d: checks failed", runSeed)
			}
			fmt.Printf("set %d seed %d: attempted %d failed %d", s+1, runSeed, out.Attempted, out.Failed)
			for _, name := range metricNames(out.Metrics) {
				values[s][name] = append(values[s][name], out.Metrics[name].Value)
				fmt.Printf(" %s=%.5g", name, out.Metrics[name].Value)
			}
			fmt.Println()
		}
	}
	fmt.Printf("\n%-16s %4s %12s %12s %12s %9s %9s %9s\n", "metric", "set", "median", "q1", "q3", "iqr/med", "max/min", "drift")
	for _, name := range metricNames(values[0]) {
		var first float64
		for s := range values {
			xs := values[s][name]
			q1, q2, q3 := quartiles(xs)
			lo, hi := slices.Min(xs), slices.Max(xs)
			drift := ""
			if s == 0 {
				first = q2
			} else {
				drift = fmt.Sprintf("%+8.2f%%", 100*(q2-first)/first)
			}
			fmt.Printf("%-16s %4d %12.5g %12.5g %12.5g %8.2f%% %8.2f%% %9s\n",
				name, s+1, q2, q1, q3, 100*(q3-q1)/q2, 100*(hi/lo-1), drift)
		}
	}
	return nil
}

// quartiles returns the three cut points of statistics.quantiles(xs, n=4)
// with its default exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := len(d)
	if m == 1 {
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// metricNames returns m's keys in order.
func metricNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
