// Command perfbench is the repository's end-to-end benchmark. It builds the
// real server in-process (server.NewMulti with the d2pr-server defaults,
// request logging off), drives Handler().ServeHTTP directly as one
// closed-loop client, checks every answer against an oracle of its own, and
// prints the workload's metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the workload
// with a span around each layer call and prints the per-layer metrics. A
// steadiness report runs one workload many times, each in a fresh process:
//
//	bash perfbench/run.sh steady --workload ppr-cold --runs 10 --sets 2
//
// See perfbench/README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	size     sizes
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "nominal length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 replays the workload with spans and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.traceDir = ".bench_build/trace"
	cfg.size = fullSize
	if !slices.Contains(workloadNames(), cfg.workload) || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	out, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// run executes one run and returns its result. The run record (host,
// seed, operation counts, check failures) goes to log before the result.
func run(cfg config, log io.Writer) (*output, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.size)
	if err != nil {
		return nil, err
	}
	hostRecord(log, cfg)

	start := time.Now()
	e, err := w.setup()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setupS := []float64{time.Since(start).Seconds()}
	materializeMs := e.materializeMs
	defer func() {
		if e != nil {
			_ = e.close()
		}
	}()
	var wrong []error
	phase := time.Now()
	if err := w.warm(e); err != nil {
		wrong = append(wrong, fmt.Errorf("warm-up: %w", err))
	}
	fmt.Fprintf(log, "warm-up: %.2f s\n", time.Since(phase).Seconds())
	rounds := max(1, int(math.Round(cfg.seconds/w.roundSeconds())))

	out := &output{Metrics: map[string]metric{}}
	if cfg.trace {
		// Every traced request is also replayed call by call, so the traced
		// run covers a third of the rounds (at least one measured round
		// after the allocation-counting one, at most twenty).
		ps, err := traced(cfg, w, e, min(max(2, rounds/3), 20), materializeMs, out, log)
		if err != nil {
			return nil, err
		}
		wrong = append(wrong, ps...)
	} else {
		ph, err := measure(w, e, rounds, out, log)
		if err != nil {
			return nil, err
		}
		wrong = append(wrong, ph...)
	}
	phase = time.Now()
	if err := w.check(e, log); err != nil {
		wrong = append(wrong, err)
	}
	fmt.Fprintf(log, "oracle checks: %.2f s\n", time.Since(phase).Seconds())
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	e = nil

	if !cfg.trace {
		// Set up again from scratch, after the measured phase so the extra
		// servers cannot touch its numbers, and report the median.
		for i := 1; i < cfg.size.setups; i++ {
			runtime.GC()
			start := time.Now()
			extra, err := w.setup()
			if err != nil {
				return nil, fmt.Errorf("setup %d: %w", i+1, err)
			}
			setupS = append(setupS, time.Since(start).Seconds())
			if err := extra.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		}
		out.Metrics["setup_s"] = metric{median(setupS), "s"}
		fmt.Fprintf(log, "setup_s: %s\n", fmtList(setupS))
	}

	out.Correct = len(wrong) == 0
	for _, err := range wrong {
		fmt.Fprintln(log, "CHECK FAILED:", err)
	}
	fmt.Fprintf(log, "operations: attempted %d, failed %d\n", out.Attempted, out.Failed)
	return out, nil
}

// measure runs the timed phase: whole rounds of the workload, one request
// at a time, each sent when the previous one has returned.
func measure(w workload, e *env, rounds int, out *output, log io.Writer) ([]error, error) {
	lat, err := newSamples(rounds * w.perRound())
	if err != nil {
		return nil, err
	}
	defer lat.free()
	var wrong []error
	var busy time.Duration
	var requests, configs int
	runtime.GC()
	cpuStart := cpuSeconds()
	for r := 0; r < rounds; r++ {
		qs := w.round(r)
		start := time.Now()
		for _, q := range qs {
			status, body, d := e.serve(q.req)
			lat.add(q.kind, ms(d))
			out.Attempted += q.ops
			failed, err := w.observe(e, q, status, body)
			out.Failed += failed
			if err != nil && len(wrong) < 10 {
				wrong = append(wrong, err)
			}
		}
		busy += time.Since(start)
		requests += len(qs)
		for _, q := range qs {
			configs += q.ops
		}
	}
	cpu := cpuSeconds() - cpuStart
	heap := liveHeapMB()
	secs := busy.Seconds()
	pooled := make([]float64, len(lat.v))
	for i, x := range lat.v {
		pooled[i] = x.ms
	}
	out.Metrics["latency_p50_ms"] = metric{kindMedian(lat.v), "ms"}
	out.Metrics["live_heap_mb"] = metric{heap, "MB"}
	// Throughput, p90 and p99 are reported here and not as metrics: on
	// this host they moved by more than any bound allows between runs of
	// unchanged code (README, "End-to-end metrics").
	fmt.Fprintf(log, "timed phase: %d rounds, %d requests, %d configurations in %.2f s (process CPU %.2f s): %.5g req/s, %.5g configurations/s\n",
		rounds, requests, configs, secs, cpu, float64(requests)/secs, float64(configs)/secs)
	fmt.Fprintf(log, "latency samples: %d; pooled p50 %.4g ms, p90 %.4g ms with %d beyond it, p99 %.4g ms\n",
		len(pooled), percentile(pooled, 0.50), percentile(pooled, 0.90), len(pooled)-int(math.Ceil(0.90*float64(len(pooled)))), percentile(pooled, 0.99))
	return wrong, nil
}

// hostRecord prints what the numbers were measured on.
func hostRecord(log io.Writer, cfg config) {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(log, "host: cpu %q, nproc %d, GOMAXPROCS %d, %s\n", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(log, "workload %s, seed %d, seconds %g, trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
}

// cpuSeconds is the CPU time the process has used, user and system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
