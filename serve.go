package dynamo

import (
	"time"

	"dynamo/internal/service"
)

// SweepService is a running sweep control plane (see Serve): an HTTP/JSON
// API over a shared Runner that accepts whole sweeps, serves results out
// of the content-addressed cache, and survives restarts through persisted
// sweep documents plus job checkpoints. Every job it cannot answer from
// the cache waits in one lease table, which grants jobs round-robin
// across sweeps to worker slots: the service's own in-process slots
// (ServiceJobs) and any fleet workers (FleetWorker) pulling over HTTP.
//
// Routes: POST /v1/sweeps, GET|DELETE /v1/sweeps/{id},
// GET /v1/jobs/{digest}, GET /v1/jobs/{digest}/span, the /v1/work lease
// routes, plus the telemetry endpoints (/metrics, /progress, /jobs) on
// the same listener.
type SweepService struct {
	svc *service.Service
	srv *service.Server
	// journal is the ServiceJournal surface Serve opened, nil if none.
	journal *SweepTelemetry
}

// SweepStatus is one sweep's point-in-time standing as reported by the
// service and client: per-job states and digests, counts, and an ETA.
type SweepStatus = service.SweepStatus

// SweepJobStatus is one job's standing inside a SweepStatus.
type SweepJobStatus = service.JobStatus

// SweepClient talks to a sweep service over HTTP. Submitted requests are
// plain SweepRequests; results come back as the exact cache-entry bytes
// the server holds on disk, so remote and local sweeps are
// byte-identical.
type SweepClient = service.Client

// ErrSweepNotFound marks a sweep id or job digest the service does not
// know (HTTP 404 on the wire).
var ErrSweepNotFound = service.ErrNotFound

// ErrServiceDraining rejects submissions while the service shuts down
// (HTTP 503 on the wire).
var ErrServiceDraining = service.ErrDraining

// ErrServiceOverloaded rejects a sweep the bounded admission queue
// (ServiceMaxQueued) cannot hold — HTTP 429 on the wire. Backpressure,
// not failure: a client with retries enabled backs off and resubmits.
var ErrServiceOverloaded = service.ErrOverloaded

// ErrSweepWaitTimeout marks a SweepClient Wait or Execute that ran out
// of its deadline (RemoteDeadline / SweepClient.Deadline) before the
// sweep turned terminal.
var ErrSweepWaitTimeout = service.ErrWaitTimeout

// ErrLeaseExpired rejects a fleet worker's heartbeat or commit whose
// lease no longer exists — its TTL lapsed and the job was reassigned
// (HTTP 410 on the wire). See ServiceWorkers.
var ErrLeaseExpired = service.ErrLeaseExpired

// ErrStaleCommit rejects a fleet worker's commit bearing a fencing token
// that is not the job's live lease (HTTP 409 on the wire). Byte-identical
// duplicates of the committed result are acknowledged idempotently
// instead — commits are at-most-once per job.
var ErrStaleCommit = service.ErrStaleCommit

// Serve starts a sweep service on addr (host:port; ":0" picks a free
// port). ServiceCacheDir is required — the cache is what the service
// serves. With ServiceResume, persisted sweeps reload and interrupted
// jobs restore from their checkpoints, so a restart continues exactly
// where the previous process stopped.
func Serve(addr string, opts ...ServiceOption) (*SweepService, error) {
	var c serviceConfig
	journal := c.fill(opts)
	svc, err := service.New(service.Options{
		CacheDir:  c.cacheDir,
		Jobs:      c.jobs,
		Retries:   c.retries,
		CkptEvery: c.ckptEvery,
		Resume:    c.resume,
		Telemetry: c.telemetry,
		Log:       c.log,
		MaxQueued: c.maxQueued,
		Preempt:   c.preempt,
		Workers:   c.workers,
		LeaseTTL:  c.leaseTTL,
	})
	if err != nil {
		journal.Close()
		return nil, err
	}
	srv, err := service.Serve(addr, svc)
	if err != nil {
		svc.Close()
		journal.Close()
		return nil, err
	}
	return &SweepService{svc: svc, srv: srv, journal: journal}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *SweepService) Addr() string { return s.srv.Addr() }

// Drain stops accepting sweeps and interrupts in-flight jobs so they
// checkpoint; queued jobs stay persisted for a later ServiceResume
// start. Drain returns once every job has settled and is idempotent —
// dynamo-serve calls it on SIGTERM.
func (s *SweepService) Drain() { s.svc.Drain() }

// Wait blocks until every accepted sweep is quiescent (for one-shot
// hosts and tests).
func (s *SweepService) Wait() { s.svc.Wait() }

// Close drains the service, stops the HTTP listener, releases the
// runner's resources and closes the ServiceJournal journal. A surface
// supplied through ServiceTelemetry stays open.
func (s *SweepService) Close() error {
	first := s.srv.Close()
	if err := s.svc.Close(); first == nil {
		first = err
	}
	if err := s.journal.Close(); first == nil {
		first = err
	}
	return first
}

// Dial builds a client for a sweep service at addr ("host:port", scheme
// optional). The client retries refused connections briefly, so a server
// mid-restart is transparent.
func Dial(addr string) *SweepClient { return service.Dial(addr) }

// RemoteOption tunes the client a WithRemote runner dials with.
type RemoteOption func(*service.Client)

// RemoteDeadline bounds every remote job's wait and stamps submitted
// sweeps with a wire deadline, so the server abandons work the caller
// stopped watching (expired jobs report ErrSweepWaitTimeout).
func RemoteDeadline(d time.Duration) RemoteOption {
	return func(c *service.Client) { c.Deadline = d }
}

// RemoteRetries bounds the client's per-call retries of transient
// transport failures and 429/503 pushback (see SweepClient.Retries).
func RemoteRetries(n int) RemoteOption {
	return func(c *service.Client) { c.Retries = n }
}

// WithRemote routes a Runner's job execution to a sweep service at addr:
// the local runner keeps its pool, dedupe, stats and telemetry
// semantics, but every cache-missing job runs on the server and comes
// back as the server's cache-entry bytes. Combine with an empty cache
// directory to make the server the single source of truth.
func WithRemote(addr string, opts ...RemoteOption) RunnerOption {
	client := service.Dial(addr)
	for _, opt := range opts {
		opt(client)
	}
	// The interrupt-aware seam: cancelling or preempting a local job
	// aborts its remote wait promptly and best-effort cancels the sweep
	// server-side, instead of waiting out the job's natural end.
	return func(o *runnerConfig) { o.Execute = client.Execute }
}

// FleetWorker is one process of the distributed execution tier: it pulls
// jobs from a sweep service (one started with ServiceWorkers, or
// dynamo-serve -workers, has no slots of its own), executes them locally,
// heartbeats — shipping checkpoints — while they run, and commits results
// under fenced TTL leases. The dynamo-worker command wraps one. See
// FleetWorkerOptions.
type FleetWorker = service.Worker

// FleetWorkerOptions configures a FleetWorker.
type FleetWorkerOptions = service.WorkerOptions

// FleetWorkerStats counts what a FleetWorker did.
type FleetWorkerStats = service.WorkerStats

// NewFleetWorker builds a fleet worker (call Start to begin pulling work
// and Drain for a graceful finish-or-checkpoint shutdown).
func NewFleetWorker(opts FleetWorkerOptions) *FleetWorker {
	return service.NewWorker(opts)
}
