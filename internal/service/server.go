package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	"dynamo/internal/core"
	"dynamo/internal/runner"
	"dynamo/internal/telemetry"
	"dynamo/internal/workload"
)

// maxBody bounds a submission body; a sweep of tens of thousands of
// requests still fits comfortably.
const maxBody = 16 << 20

// Server is the HTTP front end over one Service: the /v1 control plane
// plus the telemetry endpoints, on one listener.
type Server struct {
	svc  *Service
	ln   net.Listener
	http *http.Server
	// closing ends when Close begins, so held lease and status calls
	// return at once instead of holding up Shutdown for the rest of their
	// hold.
	closing context.Context
	close   context.CancelFunc
}

// Serve binds addr (host:port; ":0" picks a free port) and serves svc
// until Close. Listen errors surface here. Optional middleware wraps the
// whole mux, outermost first — the fault injector's WrapHandler plugs in
// here to perturb the served transport without touching the routes.
func Serve(addr string, svc *Service, middleware ...func(http.Handler) http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("service: listening on %s: %w", addr, err)
	}
	srv := &Server{svc: svc, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", srv.postSweeps)
	mux.HandleFunc("GET /v1/sweeps/{id}", srv.getSweep)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", srv.deleteSweep)
	mux.HandleFunc("GET /v1/jobs/{digest}", srv.getJob)
	mux.HandleFunc("GET /v1/jobs/{digest}/span", srv.getJobSpan)
	mux.HandleFunc("POST /v1/work/lease", srv.postLease)
	mux.HandleFunc("POST /v1/work/{digest}/heartbeat", srv.postHeartbeat)
	mux.HandleFunc("POST /v1/work/{digest}/result", srv.postCommit)
	telemetry.Mount(mux, svc.Telemetry())
	mux.HandleFunc("/", srv.index)
	var h http.Handler = mux
	for i := len(middleware) - 1; i >= 0; i-- {
		h = middleware[i](h)
	}
	srv.closing, srv.close = context.WithCancel(context.Background())
	srv.http = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.http.Serve(ln)
	return srv, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops accepting requests and waits briefly for in-flight ones.
// It does not drain the service — call Service.Drain (or Close) for that.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.http.Shutdown(ctx)
}

// held is the context of a held call: it ends when the caller hangs up
// or the server closes.
func (s *Server) held(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.closing, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}

// kindOf classifies an error into the stable WireError.Kind vocabulary.
func kindOf(err error) string {
	switch {
	case errors.Is(err, workload.ErrUnknown):
		return "unknown-workload"
	case errors.Is(err, core.ErrUnknownPolicy):
		return "unknown-policy"
	case errors.Is(err, runner.ErrWireSchema):
		return "schema"
	case errors.Is(err, runner.ErrBadField):
		return "bad-field"
	case errors.Is(err, ErrNotFound):
		return "not-found"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrLeaseExpired):
		return "lease-expired"
	case errors.Is(err, ErrStaleCommit):
		return "stale-commit"
	default:
		return "bad-request"
	}
}

// statusOf maps an error kind to its HTTP status.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrLeaseExpired):
		return http.StatusGone
	case errors.Is(err, ErrStaleCommit):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// writeError renders err as the structured {"error": ...} envelope.
func writeError(w http.ResponseWriter, err error) {
	we := WireError{Message: err.Error(), Kind: kindOf(err)}
	var fe *runner.FieldError
	if errors.As(err, &fe) {
		we.Field, we.Value = fe.Field, fe.Value
	}
	writeJSON(w, statusOf(err), ErrorBody{Error: we})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) postSweeps(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("service: decoding sweep body: %w", err))
		return
	}
	if err := checkSchema(req.Schema); err != nil {
		writeError(w, err)
		return
	}
	if d := req.DeadlineSeconds; d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		writeError(w, &runner.FieldError{
			Field: "deadline_seconds", Value: fmt.Sprint(d),
			Err: fmt.Errorf("%w: deadline must be a non-negative finite number of seconds", runner.ErrBadField),
		})
		return
	}
	if err := r.Context().Err(); err != nil {
		// The client went away while the body was read; admitting the
		// sweep anyway would run work nobody will collect.
		writeError(w, fmt.Errorf("service: request abandoned: %w", err))
		return
	}
	st, err := s.svc.SubmitDeadline(req.Requests, time.Duration(req.DeadlineSeconds*float64(time.Second)))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) getSweep(w http.ResponseWriter, r *http.Request) {
	var st *SweepStatus
	var err error
	if r.URL.Query().Get("wait") == "1" {
		// Held until the sweep turns terminal, the client hangs up or the
		// server closes, for at most the hold a lease call gets.
		ctx, cancel := s.held(r)
		defer cancel()
		st, err = s.svc.heldStatus(ctx, r.PathValue("id"))
	} else {
		st, err = s.svc.Status(r.PathValue("id"))
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) deleteSweep(w http.ResponseWriter, r *http.Request) {
	st, err := s.svc.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	data, err := s.svc.Result(r.PathValue("digest"))
	if err != nil {
		writeError(w, err)
		return
	}
	// The raw cache document, byte-for-byte: remote results are the same
	// bytes a local sweep would have on disk.
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) getJobSpan(w http.ResponseWriter, r *http.Request) {
	span, err := s.svc.SpanOf(r.PathValue("digest"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, span)
}

// checkSchema rejects a request body from a different wire schema.
func checkSchema(schema int) error {
	if schema != 0 && schema != runner.WireSchema {
		return &runner.FieldError{
			Field: "schema", Value: fmt.Sprint(schema),
			Err: fmt.Errorf("%w: this build speaks schema %d", runner.ErrWireSchema, runner.WireSchema),
		}
	}
	return nil
}

func (s *Server) postLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("service: decoding lease body: %w", err))
		return
	}
	if err := checkSchema(req.Schema); err != nil {
		writeError(w, err)
		return
	}
	if d := req.TTLSeconds; d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		writeError(w, &runner.FieldError{
			Field: "ttl_seconds", Value: fmt.Sprint(d),
			Err: fmt.Errorf("%w: ttl must be a non-negative finite number of seconds", runner.ErrBadField),
		})
		return
	}
	// The call is held until work arrives, the worker hangs up or the
	// server closes, for at most the lease hold.
	ctx, cancel := s.held(r)
	defer cancel()
	g, err := s.svc.lt.Lease(ctx, req.Worker, time.Duration(req.TTLSeconds*float64(time.Second)))
	if err != nil {
		writeError(w, err)
		return
	}
	if g == nil {
		// No work arrived within the hold: 204, the worker asks again.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, g)
}

func (s *Server) postHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("service: decoding heartbeat body: %w", err))
		return
	}
	if err := checkSchema(req.Schema); err != nil {
		writeError(w, err)
		return
	}
	hb, err := s.svc.lt.Heartbeat(r.Context(), r.PathValue("digest"), req.Worker, req.Fence, req.Checkpoint, req.Release)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, hb)
}

func (s *Server) postCommit(w http.ResponseWriter, r *http.Request) {
	var req CommitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("service: decoding commit body: %w", err))
		return
	}
	if err := checkSchema(req.Schema); err != nil {
		writeError(w, err)
		return
	}
	cr, err := s.svc.lt.Commit(r.Context(), r.PathValue("digest"), req.Worker, req.Fence, req.Entry, req.Error, req.ErrorKind)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, cr)
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		writeError(w, fmt.Errorf("%w: %s", ErrNotFound, r.URL.Path))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `dynamo sweep service

POST   /v1/sweeps               submit a sweep (JSON batch of requests)
GET    /v1/sweeps/{id}          sweep status (?wait=1: held until terminal)
DELETE /v1/sweeps/{id}          cancel a sweep
GET    /v1/jobs/{digest}        cached result document
GET    /v1/jobs/{digest}/span   job trace span
POST   /v1/work/lease                 pull a job under a TTL lease (held until work arrives)
POST   /v1/work/{digest}/heartbeat    extend a lease / ship a checkpoint / release
POST   /v1/work/{digest}/result       commit a job's outcome (fenced)
GET    /metrics /progress /jobs telemetry
`)
}
