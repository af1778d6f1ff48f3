package runner

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"dynamo/internal/checkpoint"
	"dynamo/internal/faultio"
	"dynamo/internal/machine"
	"dynamo/internal/obs/profile"
	"dynamo/internal/telemetry"
)

// Options configures a Runner.
type Options struct {
	// Jobs bounds concurrently executing simulations (default GOMAXPROCS).
	Jobs int
	// CacheDir, when non-empty, backs the in-memory cache with a
	// persistent JSON store (one file per request digest). Unusable
	// entries are evicted and re-simulated; entries from older schema
	// versions never match.
	CacheDir string
	// Log, when non-nil, receives one progress line per completed job.
	// Jobs finish on their own goroutines, but the runner serializes its
	// writes, so Log need not be safe for concurrent use.
	Log io.Writer
	// Retries bounds how many times a transiently failed job
	// (ErrJobPanicked, machine.ErrStalled) re-executes before it is
	// quarantined. Zero disables retries.
	Retries int
	// RetryBackoff is the delay before the first retry; each further
	// retry doubles it. The schedule is deterministic — no jitter — so a
	// failing sweep replays identically. Zero selects 100ms.
	RetryBackoff time.Duration
	// CkptEvery, when nonzero with a cache directory, checkpoints every
	// running job roughly every CkptEvery simulation events to
	// <digest>.ckpt.json, so a killed sweep resumes instead of restarting.
	CkptEvery uint64
	// Resume makes jobs restore from their persisted checkpoint when one
	// exists and verifies; unusable checkpoints are evicted and the job
	// restarts from event zero.
	Resume bool
	// Interrupt, when non-nil, cancels the sweep once signaled or closed:
	// queued jobs abort immediately, running jobs checkpoint and stop,
	// and every cancelled job reports machine.ErrInterrupted.
	Interrupt <-chan struct{}
	// Telemetry, when non-nil, receives metrics and a structured job span
	// from every submit, cache, run, retry, quarantine and interrupt path,
	// and its counter block is the runner's: Stats reads the same counts
	// as /progress and /metrics, so runners sharing a surface share them.
	// Nil costs nothing: the hot path does not allocate.
	Telemetry *telemetry.Sweep
	// ServeAddr, when non-empty, serves telemetry over HTTP (/metrics,
	// /progress, /jobs) on the given host:port (":0" picks a free port) for
	// the runner's lifetime; a journal-less Telemetry surface is created
	// automatically when none was supplied. See Runner.TelemetryAddr.
	ServeAddr string
	// Execute, when non-nil, replaces local simulation (ExecuteLocal): a
	// cache-missing job calls it instead of building a machine in this
	// process, while the runner keeps its pool, dedupe, retry, telemetry
	// and stats semantics and stays the only code that reads or writes
	// the job's files — it loads the resume checkpoint, hands cadence,
	// sink, resume and interrupt to the executor, and saves the result.
	// Return an error wrapping machine.ErrInterrupted once x.Interrupt
	// closes. The sweep service's lease table and the remote client plug
	// in here.
	Execute func(Request, ExecOptions) (*Outcome, error)
	// FS, when non-nil, replaces the file plane beneath the persistent
	// cache (results, checkpoints, quarantine markers) — the seam the
	// deterministic faultio injector wraps. Nil selects the real,
	// fsync-hardened filesystem.
	FS faultio.FS
}

// Outcome is a completed job's reports.
type Outcome struct {
	Result *machine.Result
	// Hot is the contention profile, set when the request asked for one.
	Hot *profile.HotReport
	// Cached reports that the outcome was loaded from the persistent
	// store rather than simulated in this process.
	Cached bool
}

// Stats counts what the runner did. Saved is the wall-clock the original
// simulations took for every run served from the persistent store — the
// time a cold run would have spent simulating.
type Stats struct {
	// Submitted counts distinct jobs (post-dedupe); Requests counts every
	// Submit call.
	Requests  uint64
	Submitted uint64
	// Hits counts submissions answered by the in-memory cache (dedupe);
	// DiskHits counts jobs answered by the persistent store.
	Hits     uint64
	DiskHits uint64
	// Misses counts jobs that had to simulate; Errors counts failed jobs,
	// of which Panics recovered from a panicking simulation.
	Misses uint64
	Errors uint64
	Panics uint64
	// Evictions counts persisted entries dropped as corrupt or outdated.
	Evictions uint64
	// Retries counts re-executions of transiently failed jobs; Resumed
	// counts jobs restored from a persisted checkpoint (under the sweep
	// service, lease re-grants that carry one too); Interrupted counts
	// cancelled jobs (Options.Interrupt or a per-task interrupt).
	Retries     uint64
	Resumed     uint64
	Interrupted uint64
	// Saved is the recorded simulation time of every disk hit.
	Saved time.Duration
	// SimEvents totals the kernel events executed by jobs this process
	// simulated (misses only — cached outcomes replayed nothing), and
	// SimTime their wall-clock; SimEvents/SimTime is the sweep's aggregate
	// host throughput in events/sec.
	SimEvents uint64
	SimTime   time.Duration
}

// Simulated returns how many simulations actually executed.
func (s Stats) Simulated() uint64 { return s.Misses }

// ErrJobPanicked marks a job whose simulation panicked; the runner
// recovered, quarantined the job, and kept the rest of the sweep alive.
var ErrJobPanicked = errors.New("runner: job panicked")

// JobError is a failed job: the request that failed and why. Sweep code
// matches causes through it with errors.Is/As (machine.ErrTimeout,
// machine.ErrStalled, *check.Violation, ErrJobPanicked).
type JobError struct {
	Request Request
	Err     error
}

func (e *JobError) Error() string { return fmt.Sprintf("runner: %s: %v", e.Request, e.Err) }

// Unwrap exposes the cause for errors.Is and errors.As.
func (e *JobError) Unwrap() error { return e.Err }

// Execute runs one job through exec (ExecuteLocal when nil) with the two
// guards every executor gets, in the runner's pool and in a fleet worker
// alike. A panic anywhere in the job becomes an ErrJobPanicked carrying
// the recovered value and stack: one corrupt job must not take down a
// thousand-job sweep or a worker slot. And when x.Resume no longer
// replays under this build (corrupt, incompatible or diverged), the job
// restarts from event zero instead of failing.
func Execute(exec func(Request, ExecOptions) (*Outcome, error), q Request, x ExecOptions) (*Outcome, error) {
	if exec == nil {
		exec = ExecuteLocal
	}
	out, err := guard(exec, q, x)
	if x.Resume != nil && checkpoint.Unusable(err) {
		x.Resume = nil
		out, err = guard(exec, q, x)
	}
	return out, err
}

// guard calls exec, converting a panic into an ErrJobPanicked.
func guard(exec func(Request, ExecOptions) (*Outcome, error), q Request, x ExecOptions) (out *Outcome, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			out, err = nil, fmt.Errorf("%w: %v\n%s", ErrJobPanicked, rec, debug.Stack())
		}
	}()
	return exec(q, x)
}

// Task is a submitted job's handle.
type Task struct {
	req     Request
	digest  string // req.Digest(), computed once at submission
	done    chan struct{}
	out     *Outcome
	err     error
	elapsed time.Duration  // wall-clock of the run (or of the original, for disk hits)
	jt      *telemetry.Job // nil unless telemetry is enabled
	// interrupt, when non-nil, cancels just this task (see
	// SubmitInterruptible); the runner-wide Options.Interrupt still
	// applies on top.
	interrupt <-chan struct{}
}

// Wait blocks until the job completes and returns its outcome.
func (t *Task) Wait() (*Outcome, error) {
	<-t.done
	return t.out, t.err
}

// finished reports, without blocking, whether the job completed.
func (t *Task) finished() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Runner is the sweep engine. Submissions with equal request digests
// coalesce into one job; completed jobs stay in memory for the Runner's
// lifetime and, with a cache directory, persist across processes.
type Runner struct {
	opts   Options
	store  *store
	sem    chan struct{}
	tel    *telemetry.Sweep  // nil: telemetry disabled
	counts *telemetry.Counts // tel's block, or the runner's own without tel
	srv    *telemetry.Server // nil: not serving
	srvErr error
	ownTel bool // the runner created tel and closes it

	mu     sync.Mutex
	tasks  map[string]*Task
	order  []*Task
	failed []*JobError
	// arenas holds the arenas of the idle pool slots. A job takes one
	// with its slot and puts it back when it frees the slot, so no two
	// running jobs share an arena and there are never more than Jobs.
	arenas []*machine.Arena
}

// New builds a runner.
func New(opts Options) *Runner {
	if opts.Jobs <= 0 {
		opts.Jobs = runtime.GOMAXPROCS(0)
	}
	opts.Log = SerializeWriter(opts.Log)
	r := &Runner{
		opts:  opts,
		store: newStore(opts.CacheDir, opts.FS),
		sem:   make(chan struct{}, opts.Jobs),
		tel:   opts.Telemetry,
		tasks: make(map[string]*Task),
	}
	if opts.ServeAddr != "" && r.tel == nil {
		r.tel = telemetry.NewSweep(telemetry.SweepOptions{})
		r.ownTel = true
	}
	if r.counts = r.tel.Counts(); r.counts == nil {
		r.counts = new(telemetry.Counts)
	}
	r.tel.SetWorkers(opts.Jobs)
	if opts.ServeAddr != "" {
		// A bind failure degrades observability, never the sweep; it is
		// reported through TelemetryAddr's error.
		r.srv, r.srvErr = telemetry.Serve(opts.ServeAddr, r.tel)
	}
	return r
}

// Jobs returns the worker-pool size.
func (r *Runner) Jobs() int { return r.opts.Jobs }

// Telemetry returns the runner's telemetry surface (nil when disabled).
func (r *Runner) Telemetry() *telemetry.Sweep { return r.tel }

// TelemetryAddr returns the telemetry server's bound address, or the bind
// error when Options.ServeAddr could not be served ("" when not serving).
func (r *Runner) TelemetryAddr() (string, error) {
	if r.srvErr != nil {
		return "", r.srvErr
	}
	if r.srv == nil {
		return "", nil
	}
	return r.srv.Addr(), nil
}

// Close releases the runner's observability resources: it stops the
// telemetry server, if one is running, and closes the telemetry surface
// the runner created itself (a caller-supplied Options.Telemetry stays
// open — its journal belongs to the caller).
func (r *Runner) Close() error {
	var first error
	if r.srv != nil {
		first = r.srv.Close()
		r.srv = nil
	}
	if r.ownTel {
		if err := r.tel.Close(); err != nil && first == nil {
			first = err
		}
		r.ownTel = false
	}
	return first
}

// Submit enqueues a request and returns its task, coalescing duplicates:
// submitting a request whose digest is already known returns the existing
// task (a memory hit) without spawning work.
func (r *Runner) Submit(req Request) *Task { return r.submit(req, nil) }

// SubmitInterruptible enqueues a request with its own interrupt channel:
// closing it cancels just this job — aborted in queue, or stopped
// mid-run with machine.ErrInterrupted (after a final checkpoint, when
// checkpointing is on) — without touching the rest of the pool. The
// runner-wide Options.Interrupt still applies on top. The sweep service
// uses this for per-sweep cancellation. Dedupe is unchanged: a duplicate
// submission returns the existing task with its original wiring.
func (r *Runner) SubmitInterruptible(req Request, interrupt <-chan struct{}) *Task {
	return r.submit(req, interrupt)
}

func (r *Runner) submit(req Request, interrupt <-chan struct{}) *Task {
	req = req.normalize()
	digest := req.Digest()
	r.counts.Requests.Add(1)
	r.mu.Lock()
	if t, ok := r.tasks[digest]; ok && !replayable(t) {
		r.mu.Unlock()
		r.counts.Deduped.Add(1)
		return t
	}
	t := &Task{req: req, digest: digest, done: make(chan struct{}), interrupt: interrupt}
	if r.tel.Enabled() {
		// Guarded so the request never renders when telemetry is off.
		t.jt = r.tel.StartJob(digest, req.String())
	}
	r.tasks[digest] = t
	r.order = append(r.order, t)
	r.mu.Unlock()
	r.counts.Submitted.Add(1)
	r.counts.Queued.Add(1)
	go r.run(t)
	return t
}

// replayable reports whether a memoized task's answer is no answer at
// all: a job that terminated with machine.ErrInterrupted was cancelled,
// not computed, so a later submission of the same request replaces it
// with a fresh task instead of replaying the cancellation. A long-running
// sweep service depends on this — cancelling one sweep must not poison
// the same request for every future sweep.
func replayable(t *Task) bool {
	return t.finished() && errors.Is(t.err, machine.ErrInterrupted)
}

// Run submits a request and waits for its outcome.
func (r *Runner) Run(req Request) (*Outcome, error) {
	return r.Submit(req).Wait()
}

// Wait blocks until every job submitted so far has completed and returns
// the error of the earliest-submitted failed job, if any.
func (r *Runner) Wait() error {
	r.mu.Lock()
	order := make([]*Task, len(r.order))
	copy(order, r.order)
	r.mu.Unlock()
	var first error
	for _, t := range order {
		if _, err := t.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats returns a snapshot of the runner's counters, read from the same
// block as /progress and /metrics. Each counter loads atomically, but not
// all at one instant, so a snapshot taken mid-sweep may mix counts from
// slightly different moments; after Wait it is exact.
func (r *Runner) Stats() Stats {
	c := r.counts
	return Stats{
		Requests:    c.Requests.Load(),
		Submitted:   c.Submitted.Load(),
		Hits:        c.Deduped.Load(),
		DiskHits:    c.DiskHits.Load(),
		Misses:      c.Misses.Load(),
		Errors:      c.Failed.Load(),
		Panics:      c.Panics.Load(),
		Evictions:   c.Evictions.Load(),
		Retries:     c.Retries.Load(),
		Resumed:     c.Resumed.Load(),
		Interrupted: c.Interrupted.Load(),
		Saved:       time.Duration(c.SavedNanos.Load()),
		SimEvents:   c.SimEvents.Load(),
		SimTime:     time.Duration(c.SimNanos.Load()),
	}
}

// Failed returns every failed job so far, in completion order. A sweep
// that mixes good and bad configurations harvests its partial results
// with Wait-per-task and reads the casualties here.
func (r *Runner) Failed() []*JobError {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*JobError, len(r.failed))
	copy(out, r.failed)
	return out
}

// transient reports whether a failure is worth retrying: a recovered
// panic or a watchdog-abandoned stall may be an artifact of a corrupted
// process state rather than a deterministic property of the request.
func transient(err error) bool {
	return errors.Is(err, ErrJobPanicked) || errors.Is(err, machine.ErrStalled)
}

// backoff returns the deterministic delay before retry number attempt
// (1-based): RetryBackoff doubled per retry, no jitter.
func (r *Runner) backoff(attempt int) time.Duration {
	base := r.opts.RetryBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	return base << (attempt - 1)
}

// sleep pauses for d, returning false early if intr fires.
func sleep(d time.Duration, intr <-chan struct{}) bool {
	if intr == nil {
		time.Sleep(d)
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-intr:
		return false
	}
}

// interruptedNow polls an interrupt channel without blocking.
func interruptedNow(intr <-chan struct{}) bool {
	if intr == nil {
		return false
	}
	select {
	case <-intr:
		return true
	default:
		return false
	}
}

// mergeInterrupt combines the runner-wide and per-task interrupt
// channels into the single channel the machine polls. With one (or no)
// source there is nothing to merge; with both, a goroutine closes the
// merged channel as soon as either fires and exits when done closes (the
// task finished first).
func mergeInterrupt(a, b, done <-chan struct{}) <-chan struct{} {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	m := make(chan struct{})
	go func() {
		select {
		case <-a:
		case <-b:
		case <-done:
			return
		}
		close(m)
	}()
	return m
}

func (r *Runner) run(t *Task) {
	defer close(t.done)

	// The persistent store is probed outside the worker pool: hits are
	// cheap JSON reads and must not queue behind running simulations.
	out, elapsed, err := r.store.load(t.req, t.digest)
	switch {
	case err == nil:
		r.counts.Queued.Add(-1)
		r.counts.DiskHits.Add(1)
		r.counts.SavedNanos.Add(int64(elapsed))
		t.out = out
		t.elapsed = elapsed
		t.jt.Done(telemetry.OutcomeCached, 0, nil)
		r.logf(t, "cached %s (saved %s)", t.req, elapsed.Round(time.Millisecond))
		return
	case errors.Is(err, errEvicted):
		r.counts.Evictions.Add(1)
	}

	// The executor watches one channel: the merge of the sweep-wide and
	// per-task cancellation sources.
	intr := mergeInterrupt(r.opts.Interrupt, t.interrupt, t.done)
	x := ExecOptions{Interrupt: intr}
	if r.store != nil {
		if r.opts.CkptEvery > 0 {
			x.CkptEvery = r.opts.CkptEvery
			x.Sink = func(ck *checkpoint.Checkpoint) {
				if err := r.store.saveCkpt(t.digest, ck); err != nil {
					r.logf(t, "checkpoint write failed: %v", err)
				}
			}
		}
		if r.opts.Resume {
			switch ck, err := r.store.loadCkpt(t.digest); {
			case err == nil:
				x.Resume = ck
				r.counts.Resumed.Add(1)
				t.jt.MarkResumed()
				r.logf(t, "resuming %s from event %d", t.req, ck.Event)
			case !errors.Is(err, os.ErrNotExist):
				r.counts.Evictions.Add(1)
				r.logf(t, "checkpoint evicted: %v", err)
			}
		}
	}
	// Claim any stale quarantine marker before re-running: the rename
	// inside claimFailed guarantees that of all workers sharing this cache
	// directory, exactly one inherits the marker's attempt count.
	var prior int
	if prev, ok := r.store.claimFailed(t.digest); ok && prev != nil {
		prior = prev.Attempts
	}

	r.sem <- struct{}{}
	if r.cancelledNow(t) {
		// The sweep (or this job's own sweep) was cancelled while it sat
		// in the queue; its persisted checkpoint (if any) stays put for
		// the next resume.
		<-r.sem
		r.finishInterrupted(t, true)
		return
	}
	r.counts.Queued.Add(-1)
	r.counts.Running.Add(1)
	// Every attempt, retries included, builds from the slot's arena.
	x.Arena = r.takeArena()
	t.jt.Begin()
	start := time.Now()
	var runErr error
	attempts := 0
	for {
		attempts++
		t.jt.AttemptStart()
		out, runErr = Execute(r.opts.Execute, t.req, x)
		t.jt.AttemptEnd(runErr)
		if runErr == nil || !transient(runErr) || attempts > r.opts.Retries {
			break
		}
		delay := r.backoff(attempts)
		r.counts.Retries.Add(1)
		r.logf(t, "retrying %s in %s (attempt %d of %d): %v",
			t.req, delay, attempts+1, r.opts.Retries+1, runErr)
		if !sleep(delay, intr) {
			runErr = fmt.Errorf("%w (retry abandoned after: %v)", machine.ErrInterrupted, runErr)
			break
		}
	}
	elapsed = time.Since(start)
	r.putArena(x.Arena)
	<-r.sem
	r.counts.Running.Add(-1)

	if errors.Is(runErr, machine.ErrInterrupted) {
		r.finishInterrupted(t, false)
		return
	}
	if runErr != nil {
		je := &JobError{Request: t.req, Err: runErr}
		r.mu.Lock()
		r.failed = append(r.failed, je)
		r.mu.Unlock()
		r.counts.Failed.Add(1)
		if errors.Is(runErr, ErrJobPanicked) {
			r.counts.Panics.Add(1)
		}
		t.err = je
		r.tel.ObserveJob(elapsed)
		t.jt.Done(telemetry.OutcomeFailed, 0, runErr)
		// Failed runs never enter the result cache; they leave a
		// quarantine marker beside it for post-mortem instead. Any
		// persisted checkpoint stays for bisection.
		if qerr := r.store.quarantine(t.req, t.digest, runErr, prior+attempts); qerr != nil {
			r.logf(t, "quarantine write failed: %v", qerr)
		}
		r.logf(t, "failed %s after %d attempt(s): %v", t.req, attempts, runErr)
		return
	}
	r.counts.Misses.Add(1)
	r.counts.SimEvents.Add(out.Result.SimEvents)
	r.counts.SimNanos.Add(int64(elapsed))
	t.out = out
	t.elapsed = elapsed
	r.tel.ObserveJob(elapsed)
	t.jt.Done(telemetry.OutcomeOK, out.Result.SimEvents, nil)
	r.store.removeCkpt(t.digest)
	if err := r.store.save(t.req, t.digest, out, elapsed); err != nil {
		// A write failure degrades the cache, not the run.
		r.logf(t, "cache write failed: %v", err)
	}
	r.logf(t, "ran %s: %d cycles (%s)", t.req, out.Result.Cycles, elapsed.Round(time.Millisecond))
}

// takeArena returns an idle slot's arena, or a new one for a slot that
// has not run a job yet.
func (r *Runner) takeArena() *machine.Arena {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.arenas)
	if n == 0 {
		return new(machine.Arena)
	}
	a := r.arenas[n-1]
	r.arenas = r.arenas[:n-1]
	return a
}

// putArena returns a finished job's arena to the idle slots.
func (r *Runner) putArena(a *machine.Arena) {
	r.mu.Lock()
	r.arenas = append(r.arenas, a)
	r.mu.Unlock()
}

// finishInterrupted records a cancelled job: it reports
// machine.ErrInterrupted through its task but is neither quarantined nor
// counted as an error — its checkpoint (when one was captured) makes it
// resumable, not failed. fromQueue marks a job cancelled before it ever
// reached the worker pool, whose queued slot is released here; a job
// cancelled mid-run released it when it started running.
func (r *Runner) finishInterrupted(t *Task, fromQueue bool) {
	if fromQueue {
		r.counts.Queued.Add(-1)
	}
	r.counts.Interrupted.Add(1)
	t.err = &JobError{Request: t.req, Err: machine.ErrInterrupted}
	t.jt.Done(telemetry.OutcomeInterrupted, 0, machine.ErrInterrupted)
	r.logf(t, "interrupted %s", t.req)
}

// cancelledNow polls the job's cancellation sources directly — not the
// merged channel the machine watches, whose closing goroutine may lag
// the source by a scheduling quantum.
func (r *Runner) cancelledNow(t *Task) bool {
	return interruptedNow(r.opts.Interrupt) || interruptedNow(t.interrupt)
}

// EntryBytes returns the canonical persisted-cache document for digest:
// the store's file, read through the file plane and validated, or — when
// that copy was lost or corrupted (a crash, a full disk, an injected
// fault) and evicted — the document re-materialized from the in-memory
// outcome of a job this runner completed, best-effort re-persisted to
// heal the cache. Returns os.ErrNotExist when neither exists.
func (r *Runner) EntryBytes(digest string) ([]byte, error) {
	switch data, err := r.store.read(digest); {
	case err == nil:
		return data, nil
	case errors.Is(err, errEvicted):
		r.counts.Evictions.Add(1)
	}
	r.mu.Lock()
	t := r.tasks[digest]
	r.mu.Unlock()
	if t == nil || !t.finished() || t.out == nil {
		return nil, os.ErrNotExist
	}
	data, err := encodeEntry(t.req, t.out, t.elapsed)
	if err != nil {
		return nil, err
	}
	if r.store != nil {
		if werr := r.store.writeAtomic(r.store.path(digest), data); werr != nil {
			r.logf(t, "cache heal failed: %v", werr)
		}
	}
	return data, nil
}

// logf writes one progress line, prefixed with the jobs finished in any
// terminal state over the jobs submitted.
func (r *Runner) logf(t *Task, format string, args ...any) {
	if r.opts.Log == nil {
		return
	}
	c := r.counts
	done := c.DiskHits.Load() + c.Misses.Load() + c.Failed.Load() + c.Interrupted.Load()
	total := c.Submitted.Load()
	fmt.Fprintf(r.opts.Log, "  [%d/%d] "+format+"\n", append([]any{done, total}, args...)...)
}

// syncWriter serializes writes to a writer shared by concurrent loggers.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// SerializeWriter makes w safe to share between concurrent loggers that
// each write whole lines: their writes take turns. nil, and a writer it
// already serialized, pass through.
func SerializeWriter(w io.Writer) io.Writer {
	switch w.(type) {
	case nil, *syncWriter:
		return w
	}
	return &syncWriter{w: w}
}
