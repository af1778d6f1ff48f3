package dynamo

import (
	"io"
	"os"
	"time"

	"dynamo/internal/runner"
	"dynamo/internal/telemetry"
)

// Runner is the public sweep engine: submit many (workload, policy,
// parameter) runs, and the runner deduplicates identical requests,
// executes distinct ones concurrently on a bounded worker pool (each run
// builds its own simulator, so results are deterministic regardless of
// scheduling), and — with a cache directory — persists results so
// repeated sweeps simulate nothing.
//
//	r := dynamo.NewRunner(dynamo.WithCacheDir("results/cache"))
//	for _, p := range dynamo.Policies() {
//		r.Submit(dynamo.SweepRequest{Workload: "histogram", Policy: p})
//	}
//	if err := r.Wait(); err != nil { ... }
//	fmt.Println(r.Stats())
type Runner struct {
	r      *runner.Runner
	opened *SweepTelemetry // opened by a ServiceJournal option; Close closes it
}

// RunnerOption configures a Runner.
type RunnerOption func(*runnerConfig)

// runnerConfig is what the options of one NewRunner call fill: the
// runner's options, plus the telemetry surface an option opened for it.
type runnerConfig struct {
	runner.Options
	opened *SweepTelemetry
}

// WithJobs bounds concurrently executing simulations (default GOMAXPROCS).
func WithJobs(n int) RunnerOption {
	return func(o *runnerConfig) { o.Jobs = n }
}

// WithCacheDir backs the runner's in-memory cache with a persistent JSON
// store under dir (one file per request digest, written atomically).
// Corrupt or outdated entries are evicted and re-simulated.
func WithCacheDir(dir string) RunnerOption {
	return func(o *runnerConfig) { o.CacheDir = dir }
}

// WithRunnerLog sends one progress line per completed run to w. The
// Runner serializes its writes, so w need not be safe for concurrent use.
func WithRunnerLog(w io.Writer) RunnerOption {
	return func(o *runnerConfig) { o.Log = w }
}

// WithRetries re-executes transiently failed runs (a recovered panic or
// a watchdog-abandoned stall) up to n times, with a deterministic
// doubling backoff, before quarantining them. Retries are recorded in
// RunnerStats.Retries and in the run's quarantine marker.
func WithRetries(n int) RunnerOption {
	return func(o *runnerConfig) { o.Retries = n }
}

// WithRunnerCheckpoints checkpoints every running job roughly every
// `every` simulation events into the cache directory (requires
// WithCacheDir), so a killed sweep resumes instead of restarting. A
// runner with a cache directory always restores an unfinished run from
// its persisted checkpoint; one that fails verification is evicted and
// the run restarts from event zero.
func WithRunnerCheckpoints(every uint64) RunnerOption {
	return func(o *runnerConfig) { o.CkptEvery = every }
}

// WithRunnerInterrupt cancels the sweep once ch is signaled or closed:
// queued runs abort immediately, running jobs capture a final checkpoint
// (when checkpointing is enabled) and stop with ErrInterrupted.
func WithRunnerInterrupt(ch <-chan struct{}) RunnerOption {
	return func(o *runnerConfig) { o.Interrupt = ch }
}

// SweepTelemetry is the sweep observability surface: a lock-cheap metrics
// registry plus a structured per-job tracer, updated by every submit,
// cache, run, retry, quarantine and interrupt path. A nil *SweepTelemetry
// is valid and costs nothing. See NewSweepTelemetry and WithService.
type SweepTelemetry = telemetry.Sweep

// SweepProgress is a point-in-time sweep snapshot: jobs done/total, queue
// and worker occupancy, cache traffic, retries and an ETA.
type SweepProgress = telemetry.Progress

// NewSweepTelemetry builds an enabled telemetry surface. journalPath, when
// non-empty, appends one JSON line per completed job (the structured span:
// queue time, attempts, outcome, cache hit, sim events) to that file.
// Close the surface when the sweep ends to flush the journal.
func NewSweepTelemetry(journalPath string) (*SweepTelemetry, error) {
	var o telemetry.SweepOptions
	if journalPath != "" {
		j, err := telemetry.OpenJournal(journalPath)
		if err != nil {
			return nil, err
		}
		o.Journal = j
	}
	return telemetry.NewSweep(o), nil
}

// SweepJobSpan is one job's structured trace span from a telemetry
// journal: queue time, per-attempt sub-spans, outcome and sim events.
type SweepJobSpan = telemetry.JobSpan

// ReadJobJournal parses a JSONL job journal written by a telemetry
// surface (see NewSweepTelemetry) back into spans, oldest first.
func ReadJobJournal(path string) ([]SweepJobSpan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return telemetry.ReadJournal(f)
}

// ExportJobTrace converts a JSONL job journal into a Chrome trace-event
// file (open at https://ui.perfetto.dev): one lane per concurrent job
// slot, with queue and attempt sub-slices.
func ExportJobTrace(journalPath string, w io.Writer) error {
	f, err := os.Open(journalPath)
	if err != nil {
		return err
	}
	defer f.Close()
	return telemetry.ExportTraceEvents(f, w)
}

// serviceConfig collects the service-facing knobs shared by WithService
// (telemetry on a Runner) and Serve (the standalone sweep control plane).
type serviceConfig struct {
	telemetry *SweepTelemetry
	journal   string
	cacheDir  string
	jobs      int
	retries   int
	ckptEvery uint64
	resume    bool
	log       io.Writer
	maxQueued int
	preempt   bool
	workers   bool
	leaseTTL  time.Duration
}

// ServiceOption configures the observability and service surface shared
// by WithService (on a Runner) and Serve (the sweep control plane).
type ServiceOption func(*serviceConfig)

// ServiceTelemetry supplies a telemetry surface. Its lifetime belongs to
// the caller; neither the runner nor the service closes it.
func ServiceTelemetry(t *SweepTelemetry) ServiceOption {
	return func(c *serviceConfig) { c.telemetry = t }
}

// ServiceJournal journals one JSON span per completed job to path (only
// when no ServiceTelemetry surface was supplied — a supplied surface
// already owns its journal).
func ServiceJournal(path string) ServiceOption {
	return func(c *serviceConfig) { c.journal = path }
}

// ServiceCacheDir sets the persistent result store (see WithCacheDir).
// Serve requires one: a service without a cache has nothing durable to
// serve.
func ServiceCacheDir(dir string) ServiceOption {
	return func(c *serviceConfig) { c.cacheDir = dir }
}

// ServiceJobs sets the number of in-process worker slots executing jobs
// (see WithJobs); on Serve, fleet workers add their own slots on top.
func ServiceJobs(n int) ServiceOption {
	return func(c *serviceConfig) { c.jobs = n }
}

// ServiceRetries re-executes transiently failed runs (see WithRetries).
func ServiceRetries(n int) ServiceOption {
	return func(c *serviceConfig) { c.retries = n }
}

// ServiceCheckpoints checkpoints running jobs every `every` simulation
// events (see WithRunnerCheckpoints).
func ServiceCheckpoints(every uint64) ServiceOption {
	return func(c *serviceConfig) { c.ckptEvery = every }
}

// ServiceResume makes Serve reload its persisted sweeps on start. Job
// checkpoints restore either way (see WithRunnerCheckpoints). Only Serve
// honors it — a local runner has no sweep queue.
func ServiceResume() ServiceOption {
	return func(c *serviceConfig) { c.resume = true }
}

// ServiceLog sends progress lines to w. The service's lease table,
// worker slots and runner take turns writing them, so w need not be safe
// for concurrent use.
func ServiceLog(w io.Writer) ServiceOption {
	return func(c *serviceConfig) { c.log = w }
}

// ServiceMaxQueued bounds the admission queue: a sweep whose jobs would
// push the admitted-but-unfinished count past n is rejected whole with
// ErrServiceOverloaded (HTTP 429), and the client's jittered backoff
// retries it. Zero means unbounded. Only Serve honors it — a local
// runner has no admission queue.
func ServiceMaxQueued(n int) ServiceOption {
	return func(c *serviceConfig) { c.maxQueued = n }
}

// ServicePreemption enables checkpoint-based time-slicing on Serve: when
// every worker slot is busy and a newly arrived sweep is starved, one
// long-running job's lease is asked to yield at its next checkpoint
// boundary; the job re-queues and later resumes from that checkpoint — so
// short sweeps are not stuck behind long ones. Combine with
// ServiceCheckpoints so a preempted job keeps its progress.
func ServicePreemption() ServiceOption {
	return func(c *serviceConfig) { c.preempt = true }
}

// ServiceWorkers makes Serve start no in-process worker slots: every job
// waits in the lease table for an external dynamo-worker process to pull
// it through the /v1/work routes under a TTL lease with a fencing token.
// A worker that stops heartbeating is presumed dead after ttl (zero
// selects the 10s default): its job requeues — resuming from the last
// checkpoint the worker shipped — and any commit under the stale fence
// is rejected (ErrLeaseExpired / ErrStaleCommit on the wire).
// Scheduling, dedupe, retries, cancellation and preemption are the same
// as with in-process slots. Only Serve honors it — a local runner
// executes in-process.
func ServiceWorkers(ttl time.Duration) ServiceOption {
	return func(c *serviceConfig) {
		c.workers = true
		c.leaseTTL = ttl
	}
}

// fill resolves the options, opening a journal-backed telemetry surface
// when a journal path was given without a surface, and returns that
// surface (nil if it opened none) so the caller can close it. A journal
// that fails to open degrades observability, never the sweep.
func (c *serviceConfig) fill(opts []ServiceOption) (opened *SweepTelemetry) {
	for _, opt := range opts {
		opt(c)
	}
	if c.telemetry == nil && c.journal != "" {
		if t, err := NewSweepTelemetry(c.journal); err == nil {
			c.telemetry, opened = t, t
		}
	}
	return opened
}

// WithService exposes the runner over HTTP on addr (host:port; ":0"
// picks a free port): /metrics in Prometheus text format, /progress as a
// JSON snapshot, /jobs as the recent job-span tail. The options cover
// the whole service-shaped surface — telemetry, journal, cache, pool
// size, retries, checkpointing — so one call configures a runner the way
// Serve configures the standalone control plane. When no telemetry
// surface is supplied (directly or via ServiceJournal), a journal-less
// one is created. The bound address (or bind error) is reported by
// Runner.TelemetryAddr; Runner.Close stops the server, and closes a
// journal ServiceJournal opened. An empty addr applies the options
// without serving.
func WithService(addr string, opts ...ServiceOption) RunnerOption {
	return func(o *runnerConfig) {
		var c serviceConfig
		opened := c.fill(opts)
		if addr != "" {
			o.ServeAddr = addr
		}
		if c.telemetry != nil {
			o.opened.Close() // an earlier option's surface, if any: unused now
			o.Telemetry, o.opened = c.telemetry, opened
		}
		if c.cacheDir != "" {
			o.CacheDir = c.cacheDir
		}
		if c.jobs > 0 {
			o.Jobs = c.jobs
		}
		if c.retries > 0 {
			o.Retries = c.retries
		}
		if c.ckptEvery > 0 {
			o.CkptEvery = c.ckptEvery
		}
		if c.log != nil {
			o.Log = c.log
		}
	}
}

// NewRunner builds a sweep runner over the default Table II system.
func NewRunner(opts ...RunnerOption) *Runner {
	var c runnerConfig
	for _, opt := range opts {
		opt(&c)
	}
	return &Runner{r: runner.New(c.Options), opened: c.opened}
}

// SweepRequest identifies one run in a sweep. The zero value of each
// field selects the usual default (policy "all-near", 32 threads, seed 1,
// scale 1.0, default input, base system). Requests with equal effective
// parameters are the same job and simulate at most once.
//
// SweepRequest is also the wire type: the same struct, with the same
// stable lowercase JSON field names its canonical digest is computed
// over, is what Runner.Submit takes, what the CLI flags populate, and
// what the sweep service accepts as its HTTP body (see Serve and Dial) —
// there is no parallel DTO, so a served sweep, a CLI sweep and a warm
// cache are byte-identical and dedupe globally. The JSON document is
// versioned by SweepRequestSchema (the optional "schema" field; zero
// means current). Validate checks a request against this build's
// registries and limits without running anything, returning typed
// *FieldError values.
type SweepRequest = runner.Request

// CounterSpec selects the Fig. 1 shared-counter microbenchmark inside a
// SweepRequest, instead of a named workload.
type CounterSpec = runner.CounterSpec

// SweepRequestSchema is the current SweepRequest wire-format version.
const SweepRequestSchema = runner.WireSchema

// FieldError is one invalid SweepRequest field, as returned by
// SweepRequest.Validate: which field (its wire name), the offending
// value, and a cause matchable with errors.Is — ErrUnknownWorkload,
// ErrUnknownPolicy, ErrRequestSchema or ErrBadRequestField.
type FieldError = runner.FieldError

var (
	// ErrRequestSchema reports a SweepRequest document written under a
	// wire-format version this build does not speak.
	ErrRequestSchema = runner.ErrWireSchema
	// ErrBadRequestField reports a SweepRequest field whose value is out
	// of range or inconsistent with the rest of the request.
	ErrBadRequestField = runner.ErrBadField
)

// RunnerStats counts what a Runner did: in-memory and persistent cache
// hits, misses (simulations executed), evictions of unusable persisted
// entries, and the wall-clock that cache hits saved.
type RunnerStats = runner.Stats

// RunHandle is a submitted run's handle.
type RunHandle struct {
	t *runner.Task
}

// Result blocks until the run completes and returns its metrics.
func (h *RunHandle) Result() (*Result, error) {
	out, err := h.t.Wait()
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// Submit enqueues a run and returns immediately; duplicate requests
// coalesce into one job.
func (r *Runner) Submit(req SweepRequest) *RunHandle {
	return &RunHandle{t: r.r.Submit(req)}
}

// Run submits a request and waits for its result.
func (r *Runner) Run(req SweepRequest) (*Result, error) {
	return (&RunHandle{t: r.r.Submit(req)}).Result()
}

// Wait blocks until every submitted run has completed and returns the
// error of the earliest-submitted failed run, if any.
func (r *Runner) Wait() error { return r.r.Wait() }

// Stats returns a snapshot of the runner's counters: the counts its
// telemetry surface serves, exact once Wait returns.
func (r *Runner) Stats() RunnerStats { return r.r.Stats() }

// Telemetry returns the runner's telemetry surface (nil unless enabled
// with WithService).
func (r *Runner) Telemetry() *SweepTelemetry { return r.r.Telemetry() }

// TelemetryAddr returns the telemetry server's bound address, or the bind
// error when the WithService address could not be served. Both are empty
// when no address was given.
func (r *Runner) TelemetryAddr() (string, error) { return r.r.TelemetryAddr() }

// Close releases the runner's observability resources: the telemetry
// HTTP server, and any telemetry surface the runner or its options
// created (a ServiceJournal one included). A surface supplied via
// ServiceTelemetry stays open. Close does not wait for running jobs —
// call Wait first.
func (r *Runner) Close() error {
	err := r.r.Close()
	if e := r.opened.Close(); err == nil {
		err = e
	}
	return err
}

// Failed returns every failed run so far, in completion order. One bad
// configuration — even one that panics the simulator — never sinks the
// sweep: healthy runs complete, failures are quarantined here, and each
// error matches its cause through errors.Is (ErrTimeout, ErrStalled,
// ErrViolation, ErrJobPanicked).
func (r *Runner) Failed() []error {
	jobs := r.r.Failed()
	out := make([]error, len(jobs))
	for i, j := range jobs {
		out[i] = j
	}
	return out
}
