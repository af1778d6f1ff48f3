package telemetry

import (
	"io"
	"strconv"
	"sync/atomic"
	"time"
)

// jobDurationBounds are the job-duration histogram's bucket upper bounds
// in seconds: sweep jobs span quick cache re-checks to multi-minute
// full-scale simulations.
var jobDurationBounds = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// SweepOptions configures a Sweep.
type SweepOptions struct {
	// Journal, when non-nil, receives one JSONL line per completed job
	// (see OpenJournal for the file-backed case). Closed by Sweep.Close.
	Journal io.WriteCloser
	// JobTail bounds the in-memory span tail served by /jobs
	// (DefaultJobTail if <= 0).
	JobTail int
}

// Counts is a sweep's one block of job counters. The runner and the sweep
// service bump it directly, and Runner.Stats, Progress and /metrics all
// read it, so no two copies of a count can drift apart. Every field is an
// atomic and the zero value is ready to use. Each field loads atomically,
// but a reader loading several sees each at its own instant.
type Counts struct {
	// Requests counts Submit calls; Submitted the distinct jobs they
	// made, and Deduped the calls the in-memory cache answered.
	Requests, Submitted, Deduped atomic.Uint64
	// A job ends as a disk hit or a miss (both done, a miss simulated), or
	// as Failed (Panics of them recovered from a panic) or Interrupted.
	DiskHits, Misses, Failed, Panics, Interrupted atomic.Uint64
	// Evictions counts unusable persisted entries and checkpoints dropped,
	// Retries re-executions of transiently failed jobs, and Resumed jobs
	// (and lease re-grants) restored from a checkpoint.
	Evictions, Retries, Resumed atomic.Uint64
	// Preempted counts leases that yielded at a checkpoint boundary so a
	// starved sweep could run, Overloaded sweep submissions the bounded
	// admission queue rejected, and Expired jobs abandoned because their
	// sweep's deadline passed. Only the sweep service bumps them.
	Preempted, Overloaded, Expired atomic.Uint64
	// SimEvents and SimNanos total the kernel events and wall-clock of
	// simulated jobs; SavedNanos is the recorded simulation time of every
	// disk hit.
	SimEvents            atomic.Uint64
	SimNanos, SavedNanos atomic.Int64
	// Queued and Running are levels: jobs submitted but not yet on the
	// worker pool or finished, and jobs executing on it.
	Queued, Running atomic.Int64
}

// Sweep is the runner's telemetry surface: the job counter block, a
// metrics registry whose sweep series read it at scrape time, and the
// per-job tracer. A nil *Sweep is a valid, permanently disabled surface:
// every method short-circuits with zero allocations, and a runner without
// one counts into a block of its own.
type Sweep struct {
	reg    *Registry
	tracer *Tracer
	start  time.Time
	counts Counts

	leaseGranted   *Counter
	leaseExpired   *Counter
	leaseReleased  *Counter
	leaseRevoked   *Counter
	leaseCommitted *Counter
	commitOK       *Counter
	commitDup      *Counter
	commitFenced   *Counter
	commitFailed   *Counter
	ckptShipped    *Counter
	leases         *Gauge
	fleetWorkers   *Gauge

	workers *Gauge
	jobDur  *Histogram
}

// NewSweep builds an enabled telemetry surface.
func NewSweep(o SweepOptions) *Sweep {
	reg := NewRegistry()
	s := &Sweep{
		reg:    reg,
		tracer: NewTracer(o.Journal, o.JobTail),
		start:  time.Now(),

		leaseGranted:   reg.Counter("dynamo_work_leases_total", `event="granted"`, "Work-lease lifecycle events."),
		leaseExpired:   reg.Counter("dynamo_work_leases_total", `event="expired"`, "Work-lease lifecycle events."),
		leaseReleased:  reg.Counter("dynamo_work_leases_total", `event="released"`, "Work-lease lifecycle events."),
		leaseRevoked:   reg.Counter("dynamo_work_leases_total", `event="revoked"`, "Work-lease lifecycle events."),
		leaseCommitted: reg.Counter("dynamo_work_leases_total", `event="committed"`, "Work-lease lifecycle events."),
		commitOK:       reg.Counter("dynamo_work_commits_total", `outcome="ok"`, "Worker result commits by outcome."),
		commitDup:      reg.Counter("dynamo_work_commits_total", `outcome="duplicate"`, "Worker result commits by outcome."),
		commitFenced:   reg.Counter("dynamo_work_commits_total", `outcome="fenced"`, "Worker result commits by outcome."),
		commitFailed:   reg.Counter("dynamo_work_commits_total", `outcome="failed"`, "Worker result commits by outcome."),
		ckptShipped:    reg.Counter("dynamo_work_checkpoints_total", "", "Checkpoints shipped by workers over heartbeats."),
		leases:         reg.Gauge("dynamo_work_leases", "", "Work leases currently held by workers."),
		fleetWorkers:   reg.Gauge("dynamo_work_workers", "", "Distinct workers currently holding at least one lease."),

		workers: reg.Gauge("dynamo_sweep_workers", "", "Worker-pool size."),
		jobDur:  reg.Histogram("dynamo_sweep_job_duration_seconds", "Executed-job wall-clock, cache hits excluded.", jobDurationBounds),
	}

	// The job counter series render the block at scrape time.
	c := &s.counts
	const jobs, cache = "Jobs by state.", "Result cache activity."
	reg.Func("dynamo_sweep_requests_total", "counter", "", "Submit calls, before dedupe.", uintText(&c.Requests))
	reg.Func("dynamo_sweep_jobs_total", "counter", `state="deduped"`, jobs, uintText(&c.Deduped))
	reg.Func("dynamo_sweep_jobs_total", "counter", `state="submitted"`, jobs, uintText(&c.Submitted))
	reg.Func("dynamo_sweep_jobs_total", "counter", `state="done"`, jobs, func() string { return strconv.FormatUint(c.done(), 10) })
	reg.Func("dynamo_sweep_jobs_total", "counter", `state="failed"`, jobs, uintText(&c.Failed))
	reg.Func("dynamo_sweep_jobs_total", "counter", `state="interrupted"`, jobs, uintText(&c.Interrupted))

	reg.Func("dynamo_sweep_cache_total", "counter", `event="memory_hit"`, cache, uintText(&c.Deduped))
	reg.Func("dynamo_sweep_cache_total", "counter", `event="disk_hit"`, cache, uintText(&c.DiskHits))
	reg.Func("dynamo_sweep_cache_total", "counter", `event="miss"`, cache, uintText(&c.Misses))
	reg.Func("dynamo_sweep_cache_total", "counter", `event="eviction"`, cache, uintText(&c.Evictions))

	reg.Func("dynamo_sweep_retries_total", "counter", "", "Re-executions of transiently failed jobs.", uintText(&c.Retries))
	reg.Func("dynamo_sweep_panics_total", "counter", "", "Jobs whose simulation panicked (recovered).", uintText(&c.Panics))
	reg.Func("dynamo_sweep_resumed_total", "counter", "", "Jobs restored from a persisted checkpoint.", uintText(&c.Resumed))

	reg.Func("dynamo_runner_preemptions_total", "counter", "", "Jobs that yielded at a checkpoint boundary to make room for another sweep.", uintText(&c.Preempted))
	reg.Func("dynamo_service_overloaded_total", "counter", "", "Sweep submissions rejected by the bounded admission queue.", uintText(&c.Overloaded))
	reg.Func("dynamo_service_deadline_expired_total", "counter", "", "Jobs abandoned because their sweep's deadline passed.", uintText(&c.Expired))

	reg.Func("dynamo_sweep_jobs_queued", "gauge", "", "Jobs submitted but not yet running or finished.", intText(&c.Queued))
	reg.Func("dynamo_sweep_jobs_running", "gauge", "", "Jobs currently executing on the worker pool.", intText(&c.Running))
	reg.Func("dynamo_sweep_worker_utilization", "gauge", "", "Running jobs over pool size (at scrape).", func() string {
		var util float64
		if workers := s.workers.Value(); workers > 0 {
			util = float64(c.Running.Load()) / float64(workers)
		}
		return formatFloat(util)
	})
	reg.Func("dynamo_sweep_events_per_second", "gauge", "", "Aggregate simulated events per second of simulation wall-clock.", func() string {
		return formatFloat(c.eventsPerSec())
	})

	reg.Func("dynamo_sweep_sim_events_total", "counter", "", "Kernel events executed by simulated (non-cached) jobs.", uintText(&c.SimEvents))
	reg.Func("dynamo_sweep_sim_seconds_total", "counter", "", "Wall-clock spent simulating jobs.", secondsText(&c.SimNanos))
	reg.Func("dynamo_sweep_saved_seconds_total", "counter", "", "Recorded simulation time served from the persistent store.", secondsText(&c.SavedNanos))
	return s
}

// done counts the jobs that finished with a result, cached or simulated.
func (c *Counts) done() uint64 { return c.DiskHits.Load() + c.Misses.Load() }

// eventsPerSec is the simulated jobs' aggregate host throughput (0 before
// any job simulated).
func (c *Counts) eventsPerSec() float64 {
	if sec := time.Duration(c.SimNanos.Load()).Seconds(); sec > 0 {
		return float64(c.SimEvents.Load()) / sec
	}
	return 0
}

func uintText(v *atomic.Uint64) func() string {
	return func() string { return strconv.FormatUint(v.Load(), 10) }
}

func intText(v *atomic.Int64) func() string {
	return func() string { return strconv.FormatInt(v.Load(), 10) }
}

func secondsText(ns *atomic.Int64) func() string {
	return func() string { return formatFloat(time.Duration(ns.Load()).Seconds()) }
}

// Enabled reports whether telemetry collects anything; the runner guards
// span construction (digest and request rendering) behind it.
func (s *Sweep) Enabled() bool { return s != nil }

// Registry exposes the underlying registry, for callers registering
// additional instruments on the same scrape.
func (s *Sweep) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Tracer exposes the job tracer.
func (s *Sweep) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// StartJob opens a job span (nil on a disabled surface).
func (s *Sweep) StartJob(digest, request string) *Job {
	if s == nil {
		return nil
	}
	return s.tracer.StartJob(digest, request)
}

// Close closes the tracer's journal.
func (s *Sweep) Close() error {
	if s == nil {
		return nil
	}
	return s.tracer.Close()
}

// SetWorkers records the worker-pool size.
func (s *Sweep) SetWorkers(n int) {
	if s == nil {
		return
	}
	s.workers.Set(int64(n))
}

// Counts returns the surface's job counter block (nil on a disabled
// surface; a runner without telemetry keeps a block of its own).
func (s *Sweep) Counts() *Counts {
	if s == nil {
		return nil
	}
	return &s.counts
}

// ObserveJob enters an executed job's wall-clock, simulated or failed, in
// the job-duration histogram.
func (s *Sweep) ObserveJob(elapsed time.Duration) {
	if s == nil {
		return
	}
	s.jobDur.Observe(elapsed.Seconds())
}

// LeaseGranted counts a work lease handed to a worker and takes its slot
// on the lease gauge. The gauge drains through exactly one of
// LeaseExpired, LeaseReleased, LeaseRevoked or LeaseCommitted.
func (s *Sweep) LeaseGranted() {
	if s == nil {
		return
	}
	s.leaseGranted.Inc()
	s.leases.Add(1)
}

// LeaseExpired counts a lease revoked by the expiry scanner after its
// holder missed a heartbeat (worker death, hang or partition).
func (s *Sweep) LeaseExpired() {
	if s == nil {
		return
	}
	s.leaseExpired.Inc()
	s.leases.Add(-1)
}

// LeaseReleased counts a lease its holder gave back voluntarily (a
// draining worker checkpointed and released).
func (s *Sweep) LeaseReleased() {
	if s == nil {
		return
	}
	s.leaseReleased.Inc()
	s.leases.Add(-1)
}

// LeaseRevoked counts a lease the server itself withdrew (job cancelled,
// sweep expired, or the lease table shut down).
func (s *Sweep) LeaseRevoked() {
	if s == nil {
		return
	}
	s.leaseRevoked.Inc()
	s.leases.Add(-1)
}

// LeaseCommitted counts a lease ended by its holder's accepted commit.
func (s *Sweep) LeaseCommitted() {
	if s == nil {
		return
	}
	s.leaseCommitted.Inc()
	s.leases.Add(-1)
}

// WorkCommitOK counts an accepted worker result commit.
func (s *Sweep) WorkCommitOK() {
	if s == nil {
		return
	}
	s.commitOK.Inc()
}

// WorkCommitDuplicate counts a byte-identical duplicate commit accepted
// idempotently (a retried send whose first copy already landed).
func (s *Sweep) WorkCommitDuplicate() {
	if s == nil {
		return
	}
	s.commitDup.Inc()
}

// WorkCommitFenced counts a commit rejected because its fencing token was
// stale — the at-most-once guarantee turning a zombie worker's late result
// away.
func (s *Sweep) WorkCommitFenced() {
	if s == nil {
		return
	}
	s.commitFenced.Inc()
}

// WorkCommitFailed counts a commit that reported a job failure from the
// worker rather than a result.
func (s *Sweep) WorkCommitFailed() {
	if s == nil {
		return
	}
	s.commitFailed.Inc()
}

// WorkCheckpointShipped counts a checkpoint a worker shipped over a
// heartbeat.
func (s *Sweep) WorkCheckpointShipped() {
	if s == nil {
		return
	}
	s.ckptShipped.Inc()
}

// SetFleetWorkers records how many distinct workers currently hold at
// least one lease.
func (s *Sweep) SetFleetWorkers(n int64) {
	if s == nil {
		return
	}
	s.fleetWorkers.Set(n)
}

// Progress is the point-in-time sweep snapshot served by /progress and
// rendered by the live progress line.
type Progress struct {
	Workers int64 `json:"workers"`
	// TotalJobs counts distinct jobs submitted so far (post-dedupe);
	// DoneJobs those finished successfully (simulated or cached).
	TotalJobs       uint64 `json:"total_jobs"`
	DoneJobs        uint64 `json:"done_jobs"`
	FailedJobs      uint64 `json:"failed_jobs"`
	InterruptedJobs uint64 `json:"interrupted_jobs"`
	Running         int64  `json:"running"`
	Queued          int64  `json:"queued"`
	// Cache traffic: in-memory dedupe hits, persistent-store hits, misses
	// (simulations executed) and evictions.
	MemoryHits uint64 `json:"memory_hits"`
	DiskHits   uint64 `json:"disk_hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Retries    uint64 `json:"retries"`
	Panics     uint64 `json:"panics"`
	Resumed    uint64 `json:"resumed"`
	// Fault-domain traffic: cooperative preemptions, admission rejections
	// and deadline expiries (zero unless the service enables them).
	Preempted  uint64 `json:"preempted,omitempty"`
	Overloaded uint64 `json:"overloaded,omitempty"`
	Expired    uint64 `json:"expired,omitempty"`
	// SimEvents and EventsPerSec aggregate simulated-job throughput.
	SimEvents    uint64  `json:"sim_events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// ElapsedSeconds is the sweep's age; ETASeconds extrapolates the
	// remaining jobs at the observed completion rate (0 when unknown).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	ETASeconds     float64 `json:"eta_seconds"`
}

// Finished counts jobs in any terminal state.
func (p Progress) Finished() uint64 { return p.DoneJobs + p.FailedJobs + p.InterruptedJobs }

// Progress snapshots the job counter block into a derived view.
func (s *Sweep) Progress() Progress {
	if s == nil {
		return Progress{}
	}
	c := &s.counts
	p := Progress{
		Workers:         s.workers.Value(),
		TotalJobs:       c.Submitted.Load(),
		DoneJobs:        c.done(),
		FailedJobs:      c.Failed.Load(),
		InterruptedJobs: c.Interrupted.Load(),
		Running:         c.Running.Load(),
		Queued:          c.Queued.Load(),
		MemoryHits:      c.Deduped.Load(),
		DiskHits:        c.DiskHits.Load(),
		Misses:          c.Misses.Load(),
		Evictions:       c.Evictions.Load(),
		Retries:         c.Retries.Load(),
		Panics:          c.Panics.Load(),
		Resumed:         c.Resumed.Load(),
		Preempted:       c.Preempted.Load(),
		Overloaded:      c.Overloaded.Load(),
		Expired:         c.Expired.Load(),
		SimEvents:       c.SimEvents.Load(),
		EventsPerSec:    c.eventsPerSec(),
		ElapsedSeconds:  time.Since(s.start).Seconds(),
	}
	if fin := p.Finished(); fin > 0 && p.TotalJobs > fin && p.ElapsedSeconds > 0 {
		p.ETASeconds = p.ElapsedSeconds / float64(fin) * float64(p.TotalJobs-fin)
	}
	return p
}

// WriteMetrics renders the registry in Prometheus text format, the job
// counter series as the block reads at this moment. It writes nothing on a
// disabled surface.
func (s *Sweep) WriteMetrics(w io.Writer) error {
	if s == nil {
		return nil
	}
	return s.reg.WritePrometheus(w)
}
