package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// The HTTP surface. All bodies are JSON; errors come back as
// {"error": "..."} with a meaningful status:
//
//	POST   /v1/sessions               create (X-Tenant header names the tenant)
//	GET    /v1/sessions               list
//	GET    /v1/sessions/{id}          inspect
//	POST   /v1/sessions/{id}/step     advance {"quanta": n}; omitted = 1, 0 = to completion
//	POST   /v1/sessions/{id}/evict    checkpoint to disk, free the live slot
//	DELETE /v1/sessions/{id}          remove session and its files
//	GET    /v1/sessions/{id}/events   NDJSON lifecycle log; ?follow=1 streams
//	GET    /v1/sessions/{id}/obs      NDJSON engine-event stream; ?follow=1&after=N
//	POST   /v1/sessions/{id}/migrate  hand the session off {"target": url}; see docs/SERVICE.md
//	POST   /v1/migrations/in          peer-to-peer: accept a transfer envelope
//	GET    /v1/migrations/in/{id}     peer-to-peer: recovery status query (?epoch=N; fences on "no")
//	GET    /healthz                   process liveness (always 200 while serving)
//	GET    /readyz                    503 once draining
//	GET    /metrics                   Prometheus text format
//	GET    /debug/server-trace        wall-clock request spans, Chrome trace format
//
// Overload returns 429 with Retry-After; draining returns 503 with
// Retry-After; an expired request deadline returns 504 while the
// server-side work continues. A session migrated away answers mutating
// requests with 410 Gone plus a Location header pointing at the same
// path on its new home; a session mid-handoff answers 409 with
// Retry-After; a stale-epoch transfer is fenced with 409.
//
// Every request gets an X-Request-ID: the caller's if present, a
// generated one otherwise. The ID is echoed on the response, attached
// to the request's context (joining the spans in /debug/server-trace),
// and logged in the access log.

// maxBodyBytes bounds any request body.
const maxBodyBytes = 1 << 20

// maxMigrationBytes bounds an inbound migration envelope, whose
// retained obs tail (up to a ring's worth of events) dwarfs every
// other request body.
const maxMigrationBytes = 64 << 20

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.withDeadline(s.handleCreate))
	mux.HandleFunc("GET /v1/sessions", s.withDeadline(s.handleList))
	mux.HandleFunc("GET /v1/sessions/{id}", s.withDeadline(s.handleGet))
	mux.HandleFunc("POST /v1/sessions/{id}/step", s.withDeadline(s.handleStep))
	mux.HandleFunc("POST /v1/sessions/{id}/evict", s.withDeadline(s.handleEvict))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.withDeadline(s.handleDelete))
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)    // own deadline handling (follow)
	mux.HandleFunc("GET /v1/sessions/{id}/obs", s.handleObs)          // own deadline handling (follow)
	mux.HandleFunc("POST /v1/sessions/{id}/migrate", s.handleMigrate) // own, longer deadline
	mux.HandleFunc("POST /v1/migrations/in", s.handleMigrationIn)     // own, longer deadline
	mux.HandleFunc("GET /v1/migrations/in/{id}", s.withDeadline(s.handleMigrationStatus))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			w.Header().Set("Retry-After", "5")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.WriteMetrics(w)
	})
	mux.HandleFunc("GET /debug/server-trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.WriteServerTrace(w)
	})
	return s.withRequestID(mux)
}

// statusWriter observes the response status (and byte count) for the
// access log while passing Flush through for the streaming endpoints.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += n
	return n, err
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withRequestID is the outermost middleware: adopt or generate the
// request ID, echo it, attach it to the context, and (when configured)
// write one structured access-log line per request.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get("X-Request-ID")
		if req == "" {
			req = s.nextRequestID()
		}
		w.Header().Set("X-Request-ID", req)
		r = r.WithContext(WithRequestID(r.Context(), req))
		if s.cfg.AccessLog == nil {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		line, _ := json.Marshal(struct {
			Time   string `json:"time"`
			Req    string `json:"req"`
			Method string `json:"method"`
			Path   string `json:"path"`
			Status int    `json:"status"`
			Bytes  int    `json:"bytes"`
			MS     int64  `json:"duration_ms"`
		}{
			Time: start.UTC().Format(time.RFC3339Nano), Req: req,
			Method: r.Method, Path: r.URL.Path,
			Status: sw.status, Bytes: sw.bytes, MS: time.Since(start).Milliseconds(),
		})
		s.logMu.Lock()
		s.cfg.AccessLog.Write(append(line, '\n'))
		s.logMu.Unlock()
	})
}

// withDeadline applies the server's per-request deadline.
func (s *Server) withDeadline(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// writeError maps the server's typed errors onto statuses. The request
// is consulted only for migration redirects: a MigratedError turns
// into 410 Gone with a Location header rebuilding the same path on the
// session's new home, so a client can re-issue the request verbatim.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	var (
		over *OverloadError
		dead *DeadlineError
		val  *ValidationError
		gone *MigratedError
		mig  *MigratingError
		fen  *FencedError
		conf *ConflictError
	)
	switch {
	case errors.Is(err, ErrNotFound):
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
	case errors.As(err, &gone):
		if gone.Location != "" && r != nil {
			w.Header().Set("Location", gone.Location+r.URL.Path)
		}
		writeJSON(w, http.StatusGone, apiError{Error: err.Error()})
	case errors.As(err, &mig):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
	case errors.As(err, &fen):
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
	case errors.As(err, &conf):
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case errors.As(err, &over):
		secs := int(over.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
	case errors.As(err, &dead):
		writeJSON(w, http.StatusGatewayTimeout, apiError{Error: err.Error()})
	case errors.As(err, &val):
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	}
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "reading body: " + err.Error()})
		return false
	}
	if len(body) == 0 {
		return true // empty body = all defaults
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "decoding body: " + err.Error()})
		return false
	}
	return true
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var cfg SessionConfig
	if !decodeBody(w, r, &cfg) {
		return
	}
	info, err := s.CreateSession(r.Context(), r.Header.Get("X-Tenant"), cfg)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

type stepRequest struct {
	// Quanta is a pointer so "absent" (default 1) and the explicit 0
	// ("run to completion") stay distinguishable.
	Quanta *uint64 `json:"quanta"`
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	var req stepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	quanta := uint64(1)
	if req.Quanta != nil {
		quanta = *req.Quanta
	}
	res, err := s.Step(r.Context(), r.PathValue("id"), quanta)
	if err != nil {
		writeError(w, r, err)
		return
	}
	if res.State == StateFailed {
		// The session is poisoned; the body carries the diagnosis.
		writeJSON(w, http.StatusConflict, res)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	info, err := s.Evict(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.Delete(r.Context(), r.PathValue("id")); err != nil {
		writeError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleEvents streams the session's lifecycle log as NDJSON. Without
// ?follow it returns the buffered tail and closes; with ?follow=1 it
// keeps streaming until the session is deleted or migrated away, the
// client goes away, or the server drains.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, r, err)
		return
	}
	streamLog(s, w, r, sess.events, 0, appendEventLine)
}

// handleObs streams the session's published engine events as NDJSON —
// the live form of the engine's obs stream, one event per line with
// its global sequence number (see internal/obs NDJSON docs). ?after=N
// resumes past sequence N; ?follow=1 keeps streaming until the session
// reaches a terminal state, the client goes away, or the server
// drains. Lost events surface as an explicit {"kind":"gap","dropped":N}
// line.
func (s *Server) handleObs(w http.ResponseWriter, r *http.Request) {
	var after uint64
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad after cursor: " + err.Error()})
			return
		}
		after = n
	}
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, r, err)
		return
	}
	streamLog(s, w, r, sess.obsLog, after, func(buf []byte, e seqEntry[obs.Event], lost uint64) []byte {
		if lost > 0 {
			buf = obs.AppendGapNDJSON(buf, lost)
		}
		return obs.AppendEventNDJSON(buf, e.seq, e.v)
	})
}

// streamLog is the one NDJSON follow loop behind /events and /obs: it
// writes the entries of l past the cursor after, and with ?follow=1
// keeps writing each new batch until l closes, the client goes away,
// or the server drains. line renders one entry in the endpoint's wire
// form; lost counts the sequence numbers l lost just before it, which
// line must report as a gap — never skip silently.
func streamLog[T any](s *Server, w http.ResponseWriter, r *http.Request, l *seqLog[T], after uint64,
	line func(buf []byte, e seqEntry[T], lost uint64) []byte) {
	follow := r.URL.Query().Get("follow") != ""
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	var buf []byte
	for {
		entries, _, notify, closed := l.since(after)
		buf = buf[:0]
		for _, e := range entries {
			buf = line(buf, e, e.seq-1-after)
			after = e.seq
		}
		if len(buf) > 0 {
			if _, err := w.Write(buf); err != nil {
				return
			}
		}
		if !follow || closed {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		}
	}
}

type migrateRequest struct {
	Target string `json:"target"`
}

// handleMigrate runs the outbound handoff. The deadline is the regular
// request timeout plus the per-phase migration bound — a transfer
// legitimately outlives a step request.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout+3*s.cfg.MigrateTimeout)
	defer cancel()
	var req migrateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.Migrate(ctx, r.PathValue("id"), req.Target)
	if err != nil {
		writeError(w, r, err)
		return
	}
	w.Header().Set("Location", res.Location)
	writeJSON(w, http.StatusOK, res)
}

// handleMigrationIn accepts a peer's transfer envelope.
func (s *Server) handleMigrationIn(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout+3*s.cfg.MigrateTimeout)
	defer cancel()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxMigrationBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "reading envelope: " + err.Error()})
		return
	}
	var env migrationEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "decoding envelope: " + err.Error()})
		return
	}
	ack, err := s.acceptMigration(ctx, &env)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

// handleMigrationStatus answers the peer recovery question; see
// migrationStatus for why this GET is deliberately not read-only.
func (s *Server) handleMigrationStatus(w http.ResponseWriter, r *http.Request) {
	epoch, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad epoch: " + err.Error()})
		return
	}
	reply, err := s.migrationStatus(r.PathValue("id"), epoch)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

// ListenAndServe is a convenience for cmd/atsimd: serve the API on
// addr until ctx is cancelled, then drain within the configured
// DrainTimeout. announce (optional) receives the bound address before
// serving — with ":0" the actual port.
func (s *Server) ListenAndServe(ctx context.Context, addr string, announce func(string)) error {
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if announce != nil {
		announce(ln.Addr().String())
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return fmt.Errorf("server: %w", err)
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	shutdownErr := s.Shutdown(drainCtx)
	httpCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	srv.Shutdown(httpCtx)
	return shutdownErr
}
