package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"d2pr/internal/jobs"
	"d2pr/internal/registry"
)

// MaxSyncGrid caps the grid size /v1/{graph}/rank/batch accepts; larger
// sweeps must go through the asynchronous /v1/jobs route, which bounds
// concurrency and survives the client disconnecting.
const MaxSyncGrid = 256

// maxSweepBody bounds the sweep-spec request body. The largest legitimate
// spec is three float lists totalling jobs.MaxGridSize entries — far under
// a megabyte.
const maxSweepBody = 1 << 20

// decodeSweep parses a SweepSpec request body strictly: unknown fields and
// trailing content are rejected so a typo'd axis name ("betass") fails
// loudly instead of silently sweeping the default.
func decodeSweep(w http.ResponseWriter, r *http.Request) (jobs.SweepSpec, error) {
	var spec jobs.SweepSpec
	err := decodeStrictJSON(w, r, &spec)
	return spec, err
}

// JobSubmitted is the POST /v1/jobs response body.
type JobSubmitted struct {
	Job jobs.Status `json:"job"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSweep(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Malformed sweeps (including a missing "graph") are 400 before the
	// registry is consulted; only a well-formed spec naming an unregistered
	// graph gets the synchronous routes' 404.
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Fail unknown graphs at submit time with the same 404 the synchronous
	// routes use, rather than queuing a job doomed to fail.
	if !s.reg.Has(spec.Graph) {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w %q", registry.ErrUnknownGraph, spec.Graph))
		return
	}
	st, err := s.jobs.Submit(spec, requestIDFrom(r))
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, jobs.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusAccepted, JobSubmitted{Job: st})
}

// JobListResponse is the GET /v1/jobs response body.
type JobListResponse struct {
	Jobs []jobs.Status `json:"jobs"`
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, JobListResponse{Jobs: s.jobs.List()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// JobResultsResponse is the GET /v1/jobs/{id}/results response body in JSON
// mode: the rows completed so far (all of them once the job is terminal)
// plus the job status.
type JobResultsResponse struct {
	Job     jobs.Status         `json:"job"`
	Results []jobs.ConfigResult `json:"results"`
}

func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.URL.Query().Get("format") == "ndjson" {
		s.streamJobResults(w, r, id)
		return
	}
	rows, st, err := s.jobs.Results(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if rows == nil {
		rows = []jobs.ConfigResult{}
	}
	writeJSON(w, http.StatusOK, JobResultsResponse{Job: st, Results: rows})
}

// streamJobResults serves format=ndjson: one ConfigResult JSON object per
// line, flushed as each configuration completes, followed by a terminal
// status line {"job": {...}} once the job finishes. The connection follows a
// running job to completion, so a client can submit a sweep and consume
// results incrementally with one request.
func (s *Server) streamJobResults(w http.ResponseWriter, r *http.Request, id string) {
	// Probe existence before committing the 200 + streaming headers.
	if _, err := s.jobs.Get(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	st, err := s.jobs.Stream(r.Context(), id, func(row jobs.ConfigResult) error {
		if err := enc.Encode(row); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		return // client went away mid-stream; nothing more to send
	}
	_ = enc.Encode(JobSubmitted{Job: st})
	if flusher != nil {
		flusher.Flush()
	}
}

// BatchResponse is the POST /v1/{graph}/rank/batch response body.
type BatchResponse struct {
	Graph   string              `json:"graph"`
	Count   int                 `json:"count"`
	Results []jobs.ConfigResult `json:"results"`
}

// handleRankBatch runs a small sweep synchronously: the registry snapshot is
// resolved once and its CSR shared across every configuration, configurations
// execute concurrently on the shared job workers (-job-workers) under the
// request deadline but outside the admission budget, and each score vector
// lands in the rank cache exactly as a /rank request's would.
func (s *Server) handleRankBatch(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	spec, err := decodeSweep(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if spec.Graph != "" && spec.Graph != snap.Name {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweep names graph %q but was posted to %q", spec.Graph, snap.Name))
		return
	}
	spec.Graph = snap.Name
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if n := spec.GridSize(); n > MaxSyncGrid {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("grid of %d configurations exceeds the synchronous limit %d; submit it as a job via POST /v1/jobs", n, MaxSyncGrid))
		return
	}
	if err := spec.ValidateWith(snap); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, jobs.ErrNoSignificance) {
			status = http.StatusNotFound // same contract as /correlate
		}
		writeError(w, status, err)
		return
	}
	// The request deadline bounds the whole batch: configurations the
	// deadline keeps from finishing come back as skipped rows, exactly like a
	// cancelled async job's.
	ctx, cancel, err := s.requestCtx(r, r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	results := s.jobs.RunSync(ctx, snap, spec)
	writeJSON(w, http.StatusOK, BatchResponse{Graph: snap.Name, Count: len(results), Results: results})
}
