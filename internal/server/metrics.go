package server

import (
	"bytes"
	"net/http"
	"strings"
	"time"

	"d2pr/internal/admission"
	"d2pr/internal/core"
	"d2pr/internal/jobs"
	"d2pr/internal/rankcache"
	"d2pr/internal/telemetry"
)

// RouteCount is one per-route row of the /metrics JSON response: the request
// count plus error count and latency percentiles from the route's histogram.
// It aliases telemetry.RouteSummary so callers that only read Route/Count see
// the pre-telemetry shape unchanged.
type RouteCount = telemetry.RouteSummary

// MetricsResponse is the /metrics JSON response body.
type MetricsResponse struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Requests      uint64       `json:"requests"`
	Errors        uint64       `json:"errors"`
	AvgLatencyMs  float64      `json:"avg_latency_ms"`
	Routes        []RouteCount `json:"routes"`
	// DeadlineExceeded counts compute requests that ran out of deadline
	// (504s); ClientClosed counts requests whose client disconnected first
	// (499s) — a 499 is not an error, so it gets its own counter. Admission
	// carries the shed/queue-depth counters of the per-graph budgets.
	DeadlineExceeded uint64                   `json:"deadline_exceeded"`
	ClientClosed     uint64                   `json:"client_closed"`
	Solves           []telemetry.GraphSummary `json:"solves,omitempty"`
	Admission        admission.Stats          `json:"admission"`
	Cache            rankcache.Stats          `json:"cache"`
	PPRCache         rankcache.Stats          `json:"ppr_cache"`
	Jobs             jobs.Stats               `json:"jobs"`
	GraphsLoaded     int                      `json:"graphs_loaded"`
	GraphsRegistry   int                      `json:"graphs_registered"`
	// Panics counts recovered panics (handler, job, and compute recoveries
	// all feed it); Reloads counts graph reload attempts by outcome;
	// GraphStates tallies registry entries per lifecycle state.
	Panics        uint64         `json:"panics"`
	ReloadsOK     uint64         `json:"reloads_ok"`
	ReloadsFailed uint64         `json:"reloads_failed"`
	GraphStates   map[string]int `json:"graph_states"`
}

// promContentType is the Prometheus text exposition format version this
// server emits.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// wantsPrometheus decides which exposition /metrics serves. The ?format=
// query parameter wins when present (prometheus/openmetrics vs. json);
// otherwise a text/plain or openmetrics Accept header — what a Prometheus
// scraper sends — selects the text format, and everything else (browsers,
// curl without headers) keeps the historical JSON.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "openmetrics":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics-text")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		s.writeMetricsProm(w)
		return
	}
	tel := s.tel
	resp := MetricsResponse{
		UptimeSeconds:    time.Since(tel.Start()).Seconds(),
		Requests:         tel.Requests(),
		Errors:           tel.Errors(),
		AvgLatencyMs:     tel.AvgLatencyMs(),
		Routes:           tel.RouteSummaries(),
		DeadlineExceeded: tel.Deadlines(),
		ClientClosed:     tel.ClientClosed(),
		Solves:           tel.GraphSummaries(),
	}
	resp.Admission = s.adm.Stats()
	resp.Cache = s.cache.Stats()
	resp.PPRCache = s.ppr.Stats()
	resp.Jobs = s.jobs.Stats()
	resp.Panics = tel.Panics()
	resp.ReloadsOK, resp.ReloadsFailed = tel.Reloads()
	resp.GraphStates = map[string]int{}
	for _, st := range s.reg.Statuses() {
		resp.GraphsRegistry++
		resp.GraphStates[string(st.State)]++
		if st.Loaded {
			resp.GraphsLoaded++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeMetricsProm renders the full Prometheus exposition: the telemetry
// registry's request/solve/runtime families plus the server-level gauges
// (caches, admission, jobs, registry) that live outside the registry. The
// payload is staged in a buffer so an encoding error (impossible for a
// bytes.Buffer, but checked anyway) never yields a half-written 200.
func (s *Server) writeMetricsProm(w http.ResponseWriter) {
	var buf bytes.Buffer
	p := telemetry.NewPromWriter(&buf)
	s.tel.WritePrometheus(p)
	s.writeServerFamilies(p)
	if err := p.Err(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", promContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// writeServerFamilies emits the cache/admission/jobs/registry gauges and
// counters — serving-layer state the telemetry registry doesn't own.
func (s *Server) writeServerFamilies(p *telemetry.PromWriter) {
	cs := s.cache.Stats()
	p.Family("d2pr_rankcache_hits_total", "counter", "Rank cache hits.")
	p.Sample("d2pr_rankcache_hits_total", nil, float64(cs.Hits))
	p.Family("d2pr_rankcache_misses_total", "counter", "Rank cache misses.")
	p.Sample("d2pr_rankcache_misses_total", nil, float64(cs.Misses))
	p.Family("d2pr_rankcache_evictions_total", "counter", "Rank cache evictions.")
	p.Sample("d2pr_rankcache_evictions_total", nil, float64(cs.Evictions))
	p.Family("d2pr_rankcache_shared_total", "counter", "Requests that piggybacked on an in-flight solve.")
	p.Sample("d2pr_rankcache_shared_total", nil, float64(cs.Shared))
	p.Family("d2pr_rankcache_stale_hits_total", "counter", "Requests served from the stale tier.")
	p.Sample("d2pr_rankcache_stale_hits_total", nil, float64(cs.StaleHits))
	p.Family("d2pr_rankcache_entries", "gauge", "Rank cache resident entries.")
	p.Sample("d2pr_rankcache_entries", nil, float64(cs.Len))
	p.Family("d2pr_rankcache_capacity", "gauge", "Rank cache capacity.")
	p.Sample("d2pr_rankcache_capacity", nil, float64(cs.Cap))

	ps := s.ppr.Stats()
	p.Family("d2pr_pprcache_hits_total", "counter", "PPR cache hits.")
	p.Sample("d2pr_pprcache_hits_total", nil, float64(ps.Hits))
	p.Family("d2pr_pprcache_misses_total", "counter", "PPR cache misses.")
	p.Sample("d2pr_pprcache_misses_total", nil, float64(ps.Misses))
	p.Family("d2pr_pprcache_evictions_total", "counter", "PPR cache evictions.")
	p.Sample("d2pr_pprcache_evictions_total", nil, float64(ps.Evictions))
	p.Family("d2pr_pprcache_entries", "gauge", "PPR cache resident entries.")
	p.Sample("d2pr_pprcache_entries", nil, float64(ps.Len))

	as := s.adm.Stats()
	p.Family("d2pr_admission_admitted_total", "counter", "Compute requests granted a solve slot.")
	p.Sample("d2pr_admission_admitted_total", nil, float64(as.Admitted))
	p.Family("d2pr_admission_shed_total", "counter", "Compute requests rejected with a full queue.")
	p.Sample("d2pr_admission_shed_total", nil, float64(as.Shed))
	p.Family("d2pr_admission_abandoned_total", "counter", "Queued compute requests whose context ended while waiting.")
	p.Sample("d2pr_admission_abandoned_total", nil, float64(as.Abandoned))
	p.Family("d2pr_admission_running", "gauge", "Compute requests currently holding a solve slot.")
	p.Sample("d2pr_admission_running", nil, float64(as.Running))
	p.Family("d2pr_admission_queue_depth", "gauge", "Compute requests currently queued for a slot.")
	p.Sample("d2pr_admission_queue_depth", nil, float64(as.QueueDepth))

	js := s.jobs.Stats()
	p.Family("d2pr_jobs_submitted_total", "counter", "Background jobs accepted.")
	p.Sample("d2pr_jobs_submitted_total", nil, float64(js.Submitted))
	p.Family("d2pr_jobs_done_total", "counter", "Background jobs finished successfully.")
	p.Sample("d2pr_jobs_done_total", nil, float64(js.Done))
	p.Family("d2pr_jobs_failed_total", "counter", "Background jobs finished with an error.")
	p.Sample("d2pr_jobs_failed_total", nil, float64(js.Failed))
	p.Family("d2pr_jobs_cancelled_total", "counter", "Background jobs cancelled.")
	p.Sample("d2pr_jobs_cancelled_total", nil, float64(js.Cancelled))
	p.Family("d2pr_jobs_active", "gauge", "Background jobs not yet in a terminal state.")
	p.Sample("d2pr_jobs_active", nil, float64(js.Active))

	var loaded, registered int
	statuses := s.reg.Statuses()
	for _, st := range statuses {
		registered++
		if st.Loaded {
			loaded++
		}
	}
	p.Family("d2pr_graphs_registered", "gauge", "Graphs known to the registry.")
	p.Sample("d2pr_graphs_registered", nil, float64(registered))
	p.Family("d2pr_graphs_loaded", "gauge", "Graphs currently materialized in memory.")
	p.Sample("d2pr_graphs_loaded", nil, float64(loaded))

	// Engine layout/build families, one sample per graph whose engine exists
	// (reporting never triggers a build — see Snapshot.EngineIfBuilt). Stats
	// are gathered up front because samples of one family must stay
	// contiguous in the exposition.
	type engineRow struct {
		lbl   []telemetry.Label
		stats core.EngineStats
	}
	var engines []engineRow
	for _, st := range statuses {
		if !st.Loaded {
			continue
		}
		snap := s.reg.SnapshotIfLoaded(st.Name)
		if snap == nil {
			continue
		}
		eng := snap.EngineIfBuilt()
		if eng == nil {
			continue
		}
		engines = append(engines, engineRow{
			lbl:   []telemetry.Label{{Name: "graph", Value: st.Name}},
			stats: eng.Stats(),
		})
	}
	p.Family("d2pr_engine_layout_build_seconds", "gauge", "Engine construction time: transpose, locality relabeling, block layout.")
	for _, row := range engines {
		p.Sample("d2pr_engine_layout_build_seconds", row.lbl, row.stats.BuildTime.Seconds())
	}
	p.Family("d2pr_engine_reorder_seconds", "gauge", "Slice of the engine build spent computing the locality order.")
	for _, row := range engines {
		p.Sample("d2pr_engine_reorder_seconds", row.lbl, row.stats.ReorderTime.Seconds())
	}
	p.Family("d2pr_engine_reordered", "gauge", "Whether the locality relabeling is active (1) or the identity (0).")
	for _, row := range engines {
		reordered := 0.0
		if row.stats.Reordered {
			reordered = 1
		}
		p.Sample("d2pr_engine_reordered", row.lbl, reordered)
	}
	p.Family("d2pr_engine_blocks", "gauge", "Destination blocks of the cache-blocked sweep schedule.")
	for _, row := range engines {
		p.Sample("d2pr_engine_blocks", row.lbl, float64(row.stats.Blocks))
	}

	p.Family("d2pr_panics_total", "counter", "Recovered panics across handlers, jobs, and compute closures.")
	p.Sample("d2pr_panics_total", nil, float64(s.tel.Panics()))
	ok, failed := s.tel.Reloads()
	p.Family("d2pr_graph_reloads_total", "counter", "Graph reload attempts by outcome.")
	p.Sample("d2pr_graph_reloads_total", []telemetry.Label{{Name: "result", Value: "ok"}}, float64(ok))
	p.Sample("d2pr_graph_reloads_total", []telemetry.Label{{Name: "result", Value: "failed"}}, float64(failed))
	p.Family("d2pr_graph_state", "gauge", "Graph lifecycle state (1 = the graph is in this state).")
	for _, st := range statuses {
		for _, state := range []string{"loading", "ready", "degraded", "quarantined"} {
			v := 0.0
			if string(st.State) == state {
				v = 1
			}
			p.Sample("d2pr_graph_state", []telemetry.Label{{Name: "graph", Value: st.Name}, {Name: "state", Value: state}}, v)
		}
	}
}
