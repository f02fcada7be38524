package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"d2pr/internal/admission"
	"d2pr/internal/telemetry"
)

// requestIDHeader carries the per-request correlation ID. Inbound values are
// echoed when well-formed; otherwise (including when absent) the server
// generates one. The ID appears on the response, in every access-log line,
// and on job records created by the request. The name is in canonical form,
// as net/http writes it on the wire, so Header.Get and Header.Set use it
// as is instead of canonicalizing a copy on every request.
const requestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds an inbound request ID. Anything longer (or carrying
// non-printable bytes) is replaced with a generated ID rather than echoed —
// the header is reflected into responses and logs, so it is validated like
// any other untrusted input.
const maxRequestIDLen = 128

func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// newRequestID returns 16 hex characters of process-local randomness —
// collision-safe for log correlation, which needs uniqueness per retention
// window, not cryptographic unguessability.
func newRequestID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// requestTrace accumulates per-request observability state as the request
// descends through the handler tree: the correlation ID (set by the
// middleware) and, for compute endpoints, the cache tier and solve-stage
// stats (set by the handler). It is written by the handler goroutine and
// read by the middleware after the handler returns — same goroutine, no
// synchronization needed.
type requestTrace struct {
	id    string
	graph string
	tier  string
	solve *telemetry.SolveStats
}

type traceKey struct{}

// traceFrom returns the request's trace, or nil outside the middleware
// (direct handler tests).
func traceFrom(ctx context.Context) *requestTrace {
	tr, _ := ctx.Value(traceKey{}).(*requestTrace)
	return tr
}

// requestIDFrom returns the request's correlation ID, or "" outside the
// middleware.
func requestIDFrom(r *http.Request) string {
	if tr := traceFrom(r.Context()); tr != nil {
		return tr.id
	}
	return ""
}

// statusRecorder captures the response status for logging/metrics and
// rewrites the mux's built-in plain-text 404/405 fallbacks into the JSON
// error shape every other response uses. The mux records the matched pattern
// on the request before invoking a handler, so an empty pattern at
// WriteHeader time means the response is coming from the mux itself (no
// route matched, or the path matched under a different method) — exactly the
// responses whose bodies we replace.
type statusRecorder struct {
	http.ResponseWriter
	req     *http.Request
	status  int
	rewrote bool
	// wrote tracks whether the response has started — the panic-recovery
	// path may only write its 500 while the wire is still untouched.
	wrote bool
}

func (sr *statusRecorder) WriteHeader(status int) {
	sr.wrote = true
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		sr.req.Pattern == "" && !sr.rewrote {
		sr.rewrote = true
		sr.status = status
		h := sr.Header()
		h.Set("Content-Type", "application/json")
		sr.ResponseWriter.WriteHeader(status)
		msg := "no such route"
		if status == http.StatusMethodNotAllowed {
			msg = "method not allowed"
		}
		_ = json.NewEncoder(sr.ResponseWriter).Encode(errorBody{Error: msg})
		return
	}
	sr.status = status
	sr.ResponseWriter.WriteHeader(status)
}

// Write swallows the default text body after a rewrite; everything else
// passes through.
func (sr *statusRecorder) Write(b []byte) (int, error) {
	sr.wrote = true
	if sr.rewrote {
		return len(b), nil
	}
	return sr.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers (NDJSON job
// results) still flush through the middleware.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the handler tree with request-ID propagation, telemetry
// recording, and structured logging. Metrics are bucketed by the matched
// route pattern (not the raw path), so per-graph traffic aggregates under
// one series per endpoint. The recording path is mutex-free: one
// telemetry.Record call, all atomics.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started := time.Now()
		id := r.Header.Get(requestIDHeader)
		if !validRequestID(id) {
			id = newRequestID()
		}
		tr := &requestTrace{id: id}
		// WithContext copies the request; the mux mutates Pattern on the
		// pointer it is handed, so everything below (the recorder's rewrite
		// probe, the post-handler pattern read) must reference the copy.
		r = r.WithContext(context.WithValue(r.Context(), traceKey{}, tr))
		w.Header().Set(requestIDHeader, id)
		rec := &statusRecorder{ResponseWriter: w, req: r, status: http.StatusOK}
		func() {
			// Panic isolation: a bug in any handler kills the request, not the
			// process. The stack is logged, the panic counted, and — when the
			// response hasn't started — a JSON 500 goes out. Running inside
			// instrument means the 500 lands in the telemetry like any other.
			defer func() {
				if p := recover(); p != nil {
					s.tel.RecordPanic()
					if s.logger != nil {
						s.logger.Error("handler panic",
							"panic", fmt.Sprint(p),
							"method", r.Method,
							"path", r.URL.RequestURI(),
							"request_id", id,
							"stack", string(debug.Stack()),
						)
					}
					if !rec.wrote {
						writeError(rec, http.StatusInternalServerError,
							fmt.Errorf("internal error (panic recovered)"))
					} else {
						rec.status = http.StatusInternalServerError
					}
				}
			}()
			next.ServeHTTP(rec, r)
		}()
		elapsed := time.Since(started)
		// The mux records the matched pattern on the request itself;
		// unmatched paths and method mismatches leave it empty.
		pattern := r.Pattern
		if pattern == "" {
			pattern = "(no route)"
		}
		s.tel.Record(pattern, rec.status, elapsed)
		if s.logger == nil {
			return
		}
		attrs := make([]any, 0, 16)
		attrs = append(attrs,
			"method", r.Method,
			"path", r.URL.RequestURI(),
			"status", rec.status,
			"elapsed_ms", float64(elapsed)/1e6,
			"request_id", id,
		)
		if tr.tier != "" {
			attrs = append(attrs, "cache", tr.tier)
		}
		if tr.graph != "" {
			attrs = append(attrs, "graph", tr.graph)
		}
		if s.slowThreshold > 0 && elapsed >= s.slowThreshold {
			// Outlier: log the full stage breakdown so "why was this slow"
			// is answerable from the log line alone.
			if st := tr.solve; st != nil {
				attrs = append(attrs,
					"queue_ms", float64(st.AdmissionWait)/1e6,
					"engine_ms", float64(st.EngineBuild)/1e6,
					"solve_ms", float64(st.Solve)/1e6,
					"algo", st.Algo,
					"iterations", st.Iterations,
					"residual", st.Residual,
				)
				if st.Pushes > 0 {
					attrs = append(attrs, "pushes", st.Pushes)
				}
			}
			s.logger.Warn("slow request", attrs...)
			return
		}
		s.logger.Info("request", attrs...)
	})
}

// setServerTiming writes the stage breakdown as a Server-Timing header:
// the cache tier plus, for fresh solves, queue/engine/solve durations in
// milliseconds. Browsers surface these in devtools; curl users get the same
// numbers the slow-request log line carries.
func setServerTiming(w http.ResponseWriter, tier string, st *telemetry.SolveStats) {
	var b strings.Builder
	b.WriteString("cache;desc=")
	b.WriteString(tier)
	if st != nil {
		fmt.Fprintf(&b, ", queue;dur=%.3f", float64(st.AdmissionWait)/1e6)
		fmt.Fprintf(&b, ", engine;dur=%.3f", float64(st.EngineBuild)/1e6)
		fmt.Fprintf(&b, ", solve;dur=%.3f", float64(st.Solve)/1e6)
	}
	w.Header().Set("Server-Timing", b.String())
}

// noteCompute records a compute endpoint's outcome on the request trace (for
// the access log) and emits the Server-Timing header.
func noteCompute(w http.ResponseWriter, r *http.Request, graph, tier string, st *telemetry.SolveStats) {
	setServerTiming(w, tier, st)
	if tr := traceFrom(r.Context()); tr != nil {
		tr.graph = graph
		tr.tier = tier
		tr.solve = st
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Too late to change the status; nothing useful to do.
		_ = err
	}
}

type errorBody struct {
	Error string `json:"error"`
	// State distinguishes a sick-but-known graph (503, lifecycle state
	// "degraded"/"quarantined") from an unknown one (404, no state).
	State string `json:"state,omitempty"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// statusClientClosedRequest is nginx's convention for "the client went away
// before the response was ready" — nobody reads the body, but the status
// keeps access logs and metrics honest about why the work stopped. The
// telemetry registry counts 499s in their own client_closed series, not as
// errors.
const statusClientClosedRequest = 499

// retryAfterFor derives the Retry-After hint for a shed (429) response from
// the graph's current queue depth: solves finish in milliseconds-to-seconds,
// so an empty queue warrants the minimum 1s backoff, and each MaxConcurrent
// waiters already in line push the hint out by roughly one more drain cycle.
func (s *Server) retryAfterFor(graph string) string {
	depth := s.adm.QueueDepth(graph)
	per := s.adm.Stats().MaxConcurrent
	if per < 1 {
		per = 1
	}
	return strconv.Itoa(1 + depth/per)
}

// writeComputeError maps a compute-path failure to its HTTP status: a full
// admission queue is 429 + Retry-After (the stale-serve fallback has
// already been tried by scores), an expired deadline 504, a client gone 499,
// anything else 500. Deadline and disconnect counters derive from the status
// inside telemetry.Record — no counter is touched here.
func (s *Server) writeComputeError(w http.ResponseWriter, graph string, err error) {
	switch {
	case errors.Is(err, admission.ErrQueueFull):
		w.Header().Set("Retry-After", s.retryAfterFor(graph))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosedRequest, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}
