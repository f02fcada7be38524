package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"d2pr/internal/jobs"
	"d2pr/internal/rankspec"
	"d2pr/internal/registry"
)

// pprCacheHeader reports whether a /ppr response was served from the
// personalized cache ("hit" — resident entry or a piggybacked in-flight
// solve) or cost a fresh forward push ("miss").
const pprCacheHeader = "X-PPR-Cache"

// PPRResponse is the GET/POST /v1/{graph}/ppr response body.
type PPRResponse struct {
	Graph  string `json:"graph"`
	Config string `json:"config"`
	Seed   int32  `json:"seed"`
	// Cached mirrors the X-PPR-Cache header.
	Cached bool        `json:"cached"`
	Top    []RankEntry `json:"top"`
}

// parsePPRQuery extracts and validates the personalized-ranking parameters
// from the URL query. seed is required; alpha, eps, and k default to the
// server's serving configuration. Malformed values are plain errors (400);
// an out-of-range seed is reported via errSeedRange so the caller can 404
// it, matching /v1/{graph}/node/{id}.
func (s *Server) parsePPRQuery(r *http.Request, snap *registry.Snapshot) (rankspec.PPRSpec, error) {
	vals := r.URL.Query()
	seedStr := vals.Get("seed")
	if seedStr == "" {
		return rankspec.PPRSpec{}, fmt.Errorf("missing seed")
	}
	seed, err := strconv.Atoi(seedStr)
	if err != nil {
		return rankspec.PPRSpec{}, fmt.Errorf("bad seed %q", seedStr)
	}
	if seed != int(int32(seed)) { // would wrap onto an existing node
		return rankspec.PPRSpec{}, fmt.Errorf("%w: %d not in [0, %d)", errSeedRange, seed, snap.Graph.NumNodes())
	}
	spec := rankspec.NewPPR(snap.Name, int32(seed))
	spec.Epsilon = s.pprEps
	if v := vals.Get("alpha"); v != "" {
		if spec.Alpha, err = strconv.ParseFloat(v, 64); err != nil {
			return spec, fmt.Errorf("bad alpha %q", v)
		}
	}
	if v := vals.Get("eps"); v != "" {
		if spec.Epsilon, err = strconv.ParseFloat(v, 64); err != nil {
			return spec, fmt.Errorf("bad eps %q", v)
		}
	}
	if v := vals.Get("k"); v != "" {
		if spec.K, err = strconv.Atoi(v); err != nil {
			return spec, fmt.Errorf("bad k %q", v)
		}
	}
	return spec, s.checkPPRSpec(spec, snap)
}

// errSeedRange marks a structurally valid seed that does not exist on the
// graph — a 404 (unknown resource), not a 400 (malformed request).
var errSeedRange = errors.New("seed out of range")

// checkPPRSpec validates a spec against the materialized graph, folding the
// out-of-range seed case into errSeedRange.
func (s *Server) checkPPRSpec(spec rankspec.PPRSpec, snap *registry.Snapshot) error {
	n := snap.Graph.NumNodes()
	if spec.Seed < 0 || int(spec.Seed) >= n {
		return fmt.Errorf("%w: %d not in [0, %d)", errSeedRange, spec.Seed, n)
	}
	return spec.Validate(n)
}

// servePPR resolves one personalized request through the PPR cache and
// writes the response. A warm request touches no solver state: the cached
// compact rows are expanded to k response entries and encoded — O(k) work
// and allocation end to end. Cold requests run under the request deadline
// and the graph's admission budget (hits and piggybacks are exempt, like
// /rank); a saturated budget sheds with 429 + Retry-After — the per-seed
// cache has no stale tier, so there is no degraded fallback here.
func (s *Server) servePPR(w http.ResponseWriter, r *http.Request, snap *registry.Snapshot, spec rankspec.PPRSpec) {
	ctx, cancel, err := s.requestCtx(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	rows, st, err := rankspec.Solve(ctx, s.ppr, s.tel, snap, spec.CacheKeyFor(snap), spec, s.pprGate)
	if err != nil {
		s.writeComputeError(w, snap.Name, err)
		return
	}
	status, cached := "miss", st == nil
	if cached {
		status = "hit"
	}
	w.Header().Set(pprCacheHeader, status)
	noteCompute(w, r, snap.Name, status, st)
	writeJSON(w, http.StatusOK, PPRResponse{
		Graph:  snap.Name,
		Config: string(spec.CacheKey()),
		Seed:   spec.Seed,
		Cached: cached,
		Top:    rankspec.PPREntries(snap.Graph, rows),
	})
}

// writePPRSpecError maps spec validation failures to their HTTP status:
// out-of-range seeds are 404 (the node does not exist, matching
// /v1/{graph}/node/{id}), everything else 400.
func writePPRSpecError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, errSeedRange) {
		status = http.StatusNotFound
	}
	writeError(w, status, err)
}

func (s *Server) handlePPRGet(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	spec, err := s.parsePPRQuery(r, snap)
	if err != nil {
		writePPRSpecError(w, err)
		return
	}
	s.servePPR(w, r, snap, spec)
}

// pprBody is the POST /v1/{graph}/ppr request body. Zero-valued parameters
// take the serving defaults, exactly like the query-parameter form.
type pprBody struct {
	Seed    *int32  `json:"seed"`
	Alpha   float64 `json:"alpha,omitempty"`
	Epsilon float64 `json:"eps,omitempty"`
	K       int     `json:"k,omitempty"`
}

func (s *Server) handlePPRPost(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	spec, err := s.parsePPRBody(w, r, snap)
	if err != nil {
		writePPRSpecError(w, err)
		return
	}
	s.servePPR(w, r, snap, spec)
}

// parsePPRBody is parsePPRQuery for the POST /v1/{graph}/ppr JSON body.
func (s *Server) parsePPRBody(w http.ResponseWriter, r *http.Request, snap *registry.Snapshot) (rankspec.PPRSpec, error) {
	var body pprBody
	if err := decodeStrictJSON(w, r, &body); err != nil {
		return rankspec.PPRSpec{}, err
	}
	if body.Seed == nil {
		return rankspec.PPRSpec{}, fmt.Errorf("missing seed")
	}
	spec := rankspec.NewPPR(snap.Name, *body.Seed)
	spec.Epsilon = s.pprEps
	if body.Alpha != 0 {
		spec.Alpha = body.Alpha
	}
	if body.Epsilon != 0 {
		spec.Epsilon = body.Epsilon
	}
	if body.K != 0 {
		spec.K = body.K
	}
	return spec, s.checkPPRSpec(spec, snap)
}

// handlePPRBatch submits a seed cohort as an asynchronous job: the response
// is 202 + job status, and progress, cancellation, results, and NDJSON
// streaming ride the /v1/jobs routes. Duplicate and out-of-range seeds are
// rejected here with a 400 — the full seed list is validated against the
// materialized graph before anything is queued, so a cohort never partially
// executes on bad input.
func (s *Server) handlePPRBatch(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	var spec jobs.PPRBatchSpec
	if err := decodeStrictJSON(w, r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if spec.Graph != "" && spec.Graph != snap.Name {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cohort names graph %q but was posted to %q", spec.Graph, snap.Name))
		return
	}
	spec.Graph = snap.Name
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := spec.ValidateWith(snap); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.jobs.SubmitPPR(spec, requestIDFrom(r))
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

// decodeStrictJSON parses a bounded request body strictly: unknown fields
// and trailing content are rejected so a typo'd parameter fails loudly
// instead of silently taking a default.
func decodeStrictJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return fmt.Errorf("bad request body: trailing data after JSON body")
	}
	return nil
}
