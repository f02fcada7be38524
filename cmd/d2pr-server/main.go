// Command d2pr-server serves D2PR rankings over HTTP for a registry of
// named graphs.
//
// Usage:
//
//	d2pr-server -graphs ./data                  # every edge list in ./data
//	d2pr-server -datasets                       # all eight synthetic paper graphs
//	d2pr-server -dataset imdb-actor-actor       # one synthetic graph
//	d2pr-server -weighted -sig scores.tsv graph.tsv
//	d2pr-server -graphs ./data -cache-size 512 -warm p=0,0.5,1
//
// Sources combine: -graphs, -dataset/-datasets, and a positional edge-list
// file may all be given together. Graphs load lazily on first request;
// -warm precomputes the given d2pr de-coupling weights for every registered
// graph in the background at startup, on the job workers.
//
// Endpoints: /healthz, /readyz, /metrics, /v1/graphs,
// /v1/graphs/{graph}/reload, /v1/{graph}/info, /v1/{graph}/rank,
// /v1/{graph}/rank/batch, /v1/{graph}/ppr, /v1/{graph}/ppr/batch,
// /v1/{graph}/topk, /v1/{graph}/node/{id}, /v1/{graph}/correlate,
// /v1/jobs[/{id}[/results]] — see docs/server-api.md for the full contract
// and docs/operations.md for the lifecycle/probe runbook.
//
// Graphs live behind epoch-versioned snapshots: POST
// /v1/graphs/{graph}/reload (or -reload-interval for periodic refresh)
// materializes a shadow copy off the request path and swaps it atomically;
// a failed load keeps the previous snapshot serving and, after
// -max-load-retries consecutive failures, quarantines the graph until an
// operator reloads it.
//
// Personalized PageRank requests (/v1/{graph}/ppr) run forward push per
// seed and cache the top-k per (seed, α, ε, k) in a dedicated admitting
// cache sized by -ppr-cache-size; -ppr-eps sets the default push accuracy.
//
// Parameter sweeps — asynchronous jobs, /rank/batch requests and -warm —
// run on a worker pool sized by -job-workers; finished job results are
// retained for -job-ttl.
//
// Cold solves run under per-graph admission control: -max-concurrent solves
// per graph, -queue-depth queued behind them, and everything past that shed
// with 429 + Retry-After (a stale cached score is served instead when one
// exists). -request-timeout sets a default compute deadline; clients may
// override it per request with ?timeout=, capped at -max-request-timeout.
//
// -pprof localhost:6060 exposes net/http/pprof on a separate listener for
// profiling hot solver paths; it is off by default and never mounted on the
// serving mux.
//
// The server drains in-flight requests and running sweep jobs on
// SIGINT/SIGTERM before exiting (10-second grace period).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers on DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"d2pr/internal/dataset"
	"d2pr/internal/graph"
	"d2pr/internal/lifecycle"
	"d2pr/internal/rankspec"
	"d2pr/internal/registry"
	"d2pr/internal/server"
)

func main() {
	var (
		listen      = flag.String("listen", ":8080", "listen address")
		graphsDir   = flag.String("graphs", "", "directory of edge-list files to register (name = file base name)")
		directed    = flag.Bool("directed", false, "treat positional edge-list files as directed")
		weighted    = flag.Bool("weighted", false, "read a weight column from positional edge-list files")
		sigPath     = flag.String("sig", "", "optional per-node significance file for the positional graph")
		dataGraph   = flag.String("dataset", "", "also serve one built-in synthetic data graph")
		datasets    = flag.Bool("datasets", false, "also serve all eight built-in synthetic data graphs")
		scale       = flag.Float64("scale", 1.0, "synthetic dataset scale")
		seed        = flag.Uint64("seed", 42, "synthetic dataset seed")
		cacheSize   = flag.Int("cache-size", 0, "max resident score vectors (0 = default 256)")
		warm        = flag.String("warm", "", "background-warm d2pr at these de-coupling weights, e.g. p=0,0.5,1")
		jobWorkers  = flag.Int("job-workers", 0, "concurrent sweep configurations across all jobs (0 = default 4)")
		jobTTL      = flag.Duration("job-ttl", 0, "retention of finished job results (0 = default 15m)")
		pprCache    = flag.Int("ppr-cache-size", 0, "max resident personalized top-k results (0 = default 4096)")
		pprEps      = flag.Float64("ppr-eps", 0, "default forward-push residual threshold for /ppr (0 = default 1e-7)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
		float32Tier = flag.Bool("float32", false, "serve d2pr/pagerank power-iteration solves from the float32 score tier (~1e-6 absolute accuracy, roughly half the memory traffic)")

		quiet   = flag.Bool("quiet", false, "disable per-request logging")
		logJSON = flag.Bool("log-json", false, "emit request logs as JSON records instead of logfmt-style text")
		slowReq = flag.Duration("slow-request-threshold", 0, "log requests at or above this duration at WARN with the full solver-stage breakdown (0 = disabled)")

		reqTimeout    = flag.Duration("request-timeout", 0, "default deadline for compute requests; ?timeout= overrides per request (0 = none)")
		maxReqTimeout = flag.Duration("max-request-timeout", 0, "cap on per-request ?timeout= overrides (0 = default 1m)")
		maxConcurrent = flag.Int("max-concurrent", 0, "concurrent solves admitted per graph (0 = default 4)")
		queueDepth    = flag.Int("queue-depth", 0, "solve requests queued per graph before shedding with 429 (0 = default 16, negative = no queue)")

		reloadEvery = flag.Duration("reload-interval", 0, "periodically re-materialize every loaded graph from its source (0 = disabled; quarantined and unmaterialized graphs are skipped)")
		maxRetries  = flag.Int("max-load-retries", 0, "consecutive load failures before a graph is quarantined (0 = default 5, negative = retry forever)")
	)
	flag.Parse()

	if *float32Tier {
		rankspec.SetFloat32Mode(true)
		log.Printf("float32 score tier enabled for d2pr/pagerank solves")
	}

	reg := registry.NewWith(registry.Options{
		Backoff: lifecycle.Config{MaxRetries: *maxRetries},
	})
	dsCfg := dataset.Config{Scale: *scale, Seed: *seed}

	if *graphsDir != "" {
		n, err := reg.LoadDir(*graphsDir)
		if err != nil {
			log.Fatalf("d2pr-server: %v", err)
		}
		log.Printf("registered %d graphs from %s", n, *graphsDir)
	}
	if *dataGraph != "" && *datasets {
		log.Fatal("d2pr-server: -dataset is redundant with -datasets; pass one or the other")
	}
	if *datasets {
		if err := reg.AddAllDatasets(dsCfg); err != nil {
			log.Fatalf("d2pr-server: %v", err)
		}
	}
	if *dataGraph != "" {
		if err := reg.AddDataset(*dataGraph, dsCfg); err != nil {
			log.Fatalf("d2pr-server: %v", err)
		}
	}
	if *sigPath != "" && flag.NArg() != 1 {
		log.Fatalf("d2pr-server: -sig needs exactly one positional edge-list file, got %d", flag.NArg())
	}
	for _, path := range flag.Args() {
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		kind := graph.Undirected
		if *directed {
			kind = graph.Directed
		}
		if err := reg.AddFile(name, path, kind, *weighted, *sigPath); err != nil {
			log.Fatalf("d2pr-server: %v", err)
		}
	}
	if reg.Len() == 0 {
		fmt.Fprintln(os.Stderr, "d2pr-server: no graphs: need -graphs, -dataset(s), or an edge-list file")
		flag.Usage()
		os.Exit(2)
	}

	cfg := server.Config{
		CacheSize:            *cacheSize,
		JobWorkers:           *jobWorkers,
		JobTTL:               *jobTTL,
		PPRCacheSize:         *pprCache,
		PPREps:               *pprEps,
		RequestTimeout:       *reqTimeout,
		MaxRequestTimeout:    *maxReqTimeout,
		MaxConcurrent:        *maxConcurrent,
		MaxQueue:             *queueDepth,
		SlowRequestThreshold: *slowReq,
	}
	if !*quiet {
		var h slog.Handler
		if *logJSON {
			h = slog.NewJSONHandler(os.Stderr, nil)
		} else {
			h = slog.NewTextHandler(os.Stderr, nil)
		}
		cfg.Logger = slog.New(h)
	}
	srv, err := server.NewMulti(reg, cfg)
	if err != nil {
		log.Fatalf("d2pr-server: %v", err)
	}

	if *warm != "" {
		ps, err := parseWarm(*warm)
		if err != nil {
			log.Fatalf("d2pr-server: %v", err)
		}
		done, err := srv.Warm(ps, 0)
		if err != nil {
			log.Fatalf("d2pr-server: -warm: %v", err)
		}
		go func() {
			started := time.Now()
			<-done
			log.Printf("warm sweep %v over %d graphs done in %s", ps, reg.Len(), time.Since(started).Round(time.Millisecond))
		}()
	}

	if *pprofAddr != "" {
		// The profiling endpoints live on their own listener (and the
		// DefaultServeMux the pprof import registers on), never on the
		// serving mux: keep them bindable to localhost while the API faces
		// traffic.
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("d2pr-server: pprof: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *listen, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *reloadEvery > 0 {
		// Periodic refresh: each tick offers every graph a TryReload, which
		// skips unmaterialized entries (laziness preserved), quarantined ones
		// (leaving quarantine is an operator decision via POST .../reload),
		// and entries inside a failure-backoff window. The shadow load runs
		// on this goroutine; serving traffic keeps resolving the old
		// snapshot until the atomic swap.
		go func() {
			t := time.NewTicker(*reloadEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					for _, name := range reg.Names() {
						st, attempted, err := reg.TryReload(name)
						if !attempted {
							continue
						}
						if err != nil {
							log.Printf("auto-reload %s failed (state %s, retries %d): %v", name, st.State, st.Retries, err)
						} else {
							log.Printf("auto-reload %s: epoch %d (%s)", name, st.Epoch, st.Checksum)
						}
					}
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("serving %d graphs (%s) on %s", reg.Len(), strings.Join(reg.Names(), ", "), *listen)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("d2pr-server: %v", err)
	case <-ctx.Done():
		log.Print("shutting down…")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Drain the job subsystem and the HTTP listener concurrently under
		// one grace period. They are interdependent: an NDJSON results
		// stream stays open until its job reaches a terminal state, so a
		// sequential Shutdown-then-Close would burn the whole grace on the
		// stream and leave the jobs no drain time. Concurrently, jobs
		// drain (followers then get their terminal line and disconnect)
		// while ordinary requests finish; on expiry remaining jobs are
		// cancelled and remaining connections closed forcibly. New job
		// submissions are rejected (503) the moment the drain starts.
		jobsDone := make(chan error, 1)
		go func() { jobsDone <- srv.Close(shutdownCtx) }()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				log.Print("d2pr-server: grace period expired with requests still in flight; connections closed forcibly")
			} else {
				log.Printf("d2pr-server: shutdown: %v", err)
			}
		}
		if err := <-jobsDone; err != nil {
			log.Printf("d2pr-server: job drain: %v (remaining jobs cancelled)", err)
		} else {
			log.Print("job subsystem drained")
		}
	}
}

// parseWarm parses the -warm spec "p=0,0.5,1" (the "p=" prefix is optional).
func parseWarm(spec string) ([]float64, error) {
	spec = strings.TrimPrefix(spec, "p=")
	var ps []float64
	for _, part := range strings.Split(spec, ",") {
		p, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -warm value %q", part)
		}
		ps = append(ps, p)
	}
	if len(ps) == 0 {
		return nil, errors.New("empty -warm spec")
	}
	return ps, nil
}
