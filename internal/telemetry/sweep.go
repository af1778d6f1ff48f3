package telemetry

import (
	"io"
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

// Sweep is the runner's telemetry surface: a metrics registry updated by
// the runner's submit, cache, run, retry and quarantine paths, plus the
// per-job tracer. A nil *Sweep is a valid, permanently disabled surface —
// every method short-circuits with zero allocations, so the runner
// publishes unconditionally.
type Sweep struct {
	reg    *Registry
	tracer *Tracer
	start  time.Time

	requests    *Counter
	deduped     *Counter
	submitted   *Counter
	done        *Counter
	failed      *Counter
	interrupted *Counter

	memHits   *Counter
	diskHits  *Counter
	misses    *Counter
	evictions *Counter

	retries *Counter
	panics  *Counter
	resumed *Counter

	preempted  *Counter
	overloaded *Counter
	expired    *Counter

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

	queued   *Gauge
	running  *Gauge
	workers  *Gauge
	util     *FloatGauge
	eventSec *FloatGauge

	simEvents    *Counter
	simSeconds   *FloatCounter
	savedSeconds *FloatCounter
	jobDur       *Histogram
}

// NewSweep builds an enabled telemetry surface.
func NewSweep(o SweepOptions) *Sweep {
	reg := NewRegistry()
	s := &Sweep{
		reg:    reg,
		tracer: NewTracer(o.Journal, o.JobTail),
		start:  time.Now(),

		requests:    reg.Counter("dynamo_sweep_requests_total", "", "Submit calls, before dedupe."),
		deduped:     reg.Counter("dynamo_sweep_jobs_total", `state="deduped"`, "Jobs by state."),
		submitted:   reg.Counter("dynamo_sweep_jobs_total", `state="submitted"`, "Jobs by state."),
		done:        reg.Counter("dynamo_sweep_jobs_total", `state="done"`, "Jobs by state."),
		failed:      reg.Counter("dynamo_sweep_jobs_total", `state="failed"`, "Jobs by state."),
		interrupted: reg.Counter("dynamo_sweep_jobs_total", `state="interrupted"`, "Jobs by state."),

		memHits:   reg.Counter("dynamo_sweep_cache_total", `event="memory_hit"`, "Result cache activity."),
		diskHits:  reg.Counter("dynamo_sweep_cache_total", `event="disk_hit"`, "Result cache activity."),
		misses:    reg.Counter("dynamo_sweep_cache_total", `event="miss"`, "Result cache activity."),
		evictions: reg.Counter("dynamo_sweep_cache_total", `event="eviction"`, "Result cache activity."),

		retries: reg.Counter("dynamo_sweep_retries_total", "", "Re-executions of transiently failed jobs."),
		panics:  reg.Counter("dynamo_sweep_panics_total", "", "Jobs whose simulation panicked (recovered)."),
		resumed: reg.Counter("dynamo_sweep_resumed_total", "", "Jobs restored from a persisted checkpoint."),

		preempted:  reg.Counter("dynamo_runner_preemptions_total", "", "Jobs that yielded at a checkpoint boundary to make room for another sweep."),
		overloaded: reg.Counter("dynamo_service_overloaded_total", "", "Sweep submissions rejected by the bounded admission queue."),
		expired:    reg.Counter("dynamo_service_deadline_expired_total", "", "Jobs abandoned because their sweep's deadline passed."),

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

		queued:   reg.Gauge("dynamo_sweep_jobs_queued", "", "Jobs submitted but not yet running or finished."),
		running:  reg.Gauge("dynamo_sweep_jobs_running", "", "Jobs currently executing on the worker pool."),
		workers:  reg.Gauge("dynamo_sweep_workers", "", "Worker-pool size."),
		util:     reg.FloatGauge("dynamo_sweep_worker_utilization", "", "Running jobs over pool size (at scrape)."),
		eventSec: reg.FloatGauge("dynamo_sweep_events_per_second", "", "Aggregate simulated events per second of simulation wall-clock."),

		simEvents:    reg.Counter("dynamo_sweep_sim_events_total", "", "Kernel events executed by simulated (non-cached) jobs."),
		simSeconds:   reg.FloatCounter("dynamo_sweep_sim_seconds_total", "", "Wall-clock spent simulating jobs."),
		savedSeconds: reg.FloatCounter("dynamo_sweep_saved_seconds_total", "", "Recorded simulation time served from the persistent store."),
		jobDur:       reg.Histogram("dynamo_sweep_job_duration_seconds", "Executed-job wall-clock, cache hits excluded.", jobDurationBounds),
	}
	return s
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

// Submitted counts one Submit call (pre-dedupe).
func (s *Sweep) Submitted() {
	if s == nil {
		return
	}
	s.requests.Inc()
}

// JobDeduped counts a submission answered by the in-memory cache.
func (s *Sweep) JobDeduped() {
	if s == nil {
		return
	}
	s.deduped.Inc()
	s.memHits.Inc()
}

// JobQueued counts a new distinct job entering the queue.
func (s *Sweep) JobQueued() {
	if s == nil {
		return
	}
	s.submitted.Inc()
	s.queued.Add(1)
}

// JobCached counts a job answered by the persistent store; saved is the
// recorded wall-clock of the original simulation.
func (s *Sweep) JobCached(saved time.Duration) {
	if s == nil {
		return
	}
	s.queued.Add(-1)
	s.diskHits.Inc()
	s.done.Inc()
	s.savedSeconds.Add(saved.Seconds())
}

// Eviction counts an unusable persisted entry or checkpoint dropped.
func (s *Sweep) Eviction() {
	if s == nil {
		return
	}
	s.evictions.Inc()
}

// JobResumed counts a job restored from a persisted checkpoint.
func (s *Sweep) JobResumed() {
	if s == nil {
		return
	}
	s.resumed.Inc()
}

// JobRunning moves a job from the queue onto the worker pool.
func (s *Sweep) JobRunning() {
	if s == nil {
		return
	}
	s.queued.Add(-1)
	s.running.Add(1)
}

// JobRunDone releases the job's worker-pool slot.
func (s *Sweep) JobRunDone() {
	if s == nil {
		return
	}
	s.running.Add(-1)
}

// Retry counts one re-execution of a transiently failed job.
func (s *Sweep) Retry() {
	if s == nil {
		return
	}
	s.retries.Inc()
}

// JobSucceeded counts a simulated job's success: the run's wall-clock
// enters the duration histogram, its kernel events the throughput
// counters.
func (s *Sweep) JobSucceeded(elapsed time.Duration, simEvents uint64) {
	if s == nil {
		return
	}
	s.done.Inc()
	s.misses.Inc()
	s.simEvents.Add(simEvents)
	s.simSeconds.Add(elapsed.Seconds())
	s.jobDur.Observe(elapsed.Seconds())
}

// JobFailed counts a quarantined job.
func (s *Sweep) JobFailed(panicked bool, elapsed time.Duration) {
	if s == nil {
		return
	}
	s.failed.Inc()
	if panicked {
		s.panics.Inc()
	}
	s.jobDur.Observe(elapsed.Seconds())
}

// JobInterrupted counts a cancelled job. fromQueue marks a job cancelled
// before it ever reached the worker pool (its queued-gauge slot is
// released here; a job cancelled mid-run released it at JobRunning).
func (s *Sweep) JobInterrupted(fromQueue bool) {
	if s == nil {
		return
	}
	if fromQueue {
		s.queued.Add(-1)
	}
	s.interrupted.Inc()
}

// JobPreempted counts a lease that yielded its slice at a checkpoint
// boundary so a starved sweep could run; the job requeues and later
// resumes from its shipped checkpoint. The job gauges do not move: the
// job stays submitted to the runner throughout.
func (s *Sweep) JobPreempted() {
	if s == nil {
		return
	}
	s.preempted.Inc()
}

// Overloaded counts a sweep submission the bounded admission queue
// rejected. Rejected jobs never touch the queued/running gauges — they
// were refused before admission, not abandoned after it.
func (s *Sweep) Overloaded() {
	if s == nil {
		return
	}
	s.overloaded.Inc()
}

// DeadlineExpired counts n jobs abandoned because their sweep's deadline
// passed (still-queued jobs expire in bulk; each in-flight job expires as
// its interrupt lands).
func (s *Sweep) DeadlineExpired(n uint64) {
	if s == nil {
		return
	}
	s.expired.Add(n)
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

// Progress snapshots the registry into a derived view.
func (s *Sweep) Progress() Progress {
	if s == nil {
		return Progress{}
	}
	p := Progress{
		Workers:         s.workers.Value(),
		TotalJobs:       s.submitted.Value(),
		DoneJobs:        s.done.Value(),
		FailedJobs:      s.failed.Value(),
		InterruptedJobs: s.interrupted.Value(),
		Running:         s.running.Value(),
		Queued:          s.queued.Value(),
		MemoryHits:      s.memHits.Value(),
		DiskHits:        s.diskHits.Value(),
		Misses:          s.misses.Value(),
		Evictions:       s.evictions.Value(),
		Retries:         s.retries.Value(),
		Panics:          s.panics.Value(),
		Resumed:         s.resumed.Value(),
		Preempted:       s.preempted.Value(),
		Overloaded:      s.overloaded.Value(),
		Expired:         s.expired.Value(),
		SimEvents:       s.simEvents.Value(),
		ElapsedSeconds:  time.Since(s.start).Seconds(),
	}
	if sec := s.simSeconds.Value(); sec > 0 {
		p.EventsPerSec = float64(p.SimEvents) / sec
	}
	if fin := p.Finished(); fin > 0 && p.TotalJobs > fin && p.ElapsedSeconds > 0 {
		p.ETASeconds = p.ElapsedSeconds / float64(fin) * float64(p.TotalJobs-fin)
	}
	return p
}

// WriteMetrics refreshes the derived gauges and renders the registry in
// Prometheus text format. Writing nothing on a disabled surface.
func (s *Sweep) WriteMetrics(w io.Writer) error {
	if s == nil {
		return nil
	}
	if workers := s.workers.Value(); workers > 0 {
		s.util.Set(float64(s.running.Value()) / float64(workers))
	}
	if sec := s.simSeconds.Value(); sec > 0 {
		s.eventSec.Set(float64(s.simEvents.Value()) / sec)
	}
	return s.reg.WritePrometheus(w)
}
