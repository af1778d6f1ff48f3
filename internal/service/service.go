package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynamo/internal/faultio"
	"dynamo/internal/machine"
	"dynamo/internal/runner"
	"dynamo/internal/telemetry"
)

// ErrNotFound marks a sweep id or job digest the service does not know.
var ErrNotFound = errors.New("service: not found")

// ErrDraining rejects submissions while the service is shutting down.
var ErrDraining = errors.New("service: draining, not accepting sweeps")

// ErrEmptySweep rejects a submission with no requests.
var ErrEmptySweep = errors.New("service: a sweep needs at least one request")

// ErrOverloaded rejects a submission the bounded admission queue cannot
// hold (HTTP 429 on the wire, kind "overloaded"). Backpressure, not
// failure: the client's jittered backoff retries it.
var ErrOverloaded = errors.New("service: overloaded, admission queue full")

// Options configures a Service.
type Options struct {
	// CacheDir is the content-addressed result store the service serves
	// from and persists sweeps under (required: a service without a cache
	// has nothing durable to serve).
	CacheDir string
	// Jobs is the number of in-process worker slots executing jobs
	// (default GOMAXPROCS). Fleet workers add their own slots on top.
	Jobs int
	// Retries, CkptEvery: see runner.Options. Interrupted jobs always
	// resume from their persisted checkpoints.
	Retries   int
	CkptEvery uint64
	// Resume reloads persisted sweeps from CacheDir/sweeps.
	Resume bool
	// Telemetry, when non-nil, is the caller's surface; otherwise the
	// service creates (and closes) a journal-less one.
	Telemetry *telemetry.Sweep
	// Log, when non-nil, receives progress lines. The service serializes
	// its writes, so Log need not be safe for concurrent use.
	Log io.Writer
	// MaxQueued bounds admitted-but-unfinished jobs across live sweeps —
	// the admission queue. A submission that would push past it is
	// rejected with ErrOverloaded before any of its jobs are admitted
	// (all-or-nothing, like validation). Zero means unbounded.
	MaxQueued int
	// Preempt enables checkpoint-based time-slicing: when every worker
	// slot is busy and some sweep is starved (queued work, nothing
	// leased), one lease from the best-fed sweep is asked to yield at its
	// next checkpoint boundary; the job requeues and later resumes from
	// its shipped checkpoint. Requires CkptEvery > 0 to preserve progress;
	// without it a preempted job restarts from event zero.
	Preempt bool
	// PreemptSlice is the minimum time a job runs before it may be
	// preempted (default 500ms). A floor, not a quantum: preemption only
	// triggers on starvation, and the floor keeps rapid re-preemption
	// from eating a resumed job's replay time.
	PreemptSlice time.Duration
	// FS replaces the file plane beneath the sweep documents and the
	// runner's cache (fault injection); nil selects the real filesystem.
	FS faultio.FS
	// Workers starts no in-process worker slots: every job waits for an
	// external dynamo-worker process to lease it through the /v1/work
	// routes. Scheduling, dedupe, retries, cancellation and preemption
	// are the same either way.
	Workers bool
	// LeaseTTL bounds how long a worker may go without heartbeating
	// before its lease is revoked and the job requeued (default 10s).
	LeaseTTL time.Duration
}

// localHeartbeat is the in-process slots' heartbeat cadence. Direct calls
// cost nothing, so a yield lands and a checkpoint persists within about
// one checkpoint interval.
const localHeartbeat = 20 * time.Millisecond

// job is one distinct request inside a sweep. Requests in a batch that
// normalize to the same digest share one job. While its state is
// JobQueued the job is live: status reports it running while the lease
// table holds it under a lease, queued otherwise.
type job struct {
	req    runner.Request
	digest string
	state  string
	cached bool
	errMsg string
}

// sweepState is one submitted sweep: its distinct jobs in admission
// order, plus one entry per submitted request (aliasing into jobs).
type sweepState struct {
	id        string
	jobs      []*job
	entries   []*job
	cancelled bool
	// deadline, when nonzero, is the absolute instant the sweep expires;
	// timer fires expire() then, and expired latches the result.
	deadline time.Time
	timer    *time.Timer
	expired  bool
}

// Service is the sweep control plane over one runner. Every admitted job
// goes to the runner at once; the runner answers it from its cache or
// parks it in the lease table, whose grant order is the only schedule.
// See the package comment for the wire API; Serve attaches the HTTP
// front end.
type Service struct {
	opts   Options
	r      *runner.Runner
	fs     faultio.FS
	tel    *telemetry.Sweep
	ownTel bool
	lt     *leaseTable
	local  *Worker // in-process slots; nil with Options.Workers
	// interrupt is the runner's Options.Interrupt, closed once by Drain.
	interrupt chan struct{}

	mu sync.Mutex
	// wake is closed, and replaced, whenever a job settles or a sweep is
	// cancelled or expires: Wait and held status calls wait on it.
	wake     chan struct{}
	sweeps   map[string]*sweepState
	draining bool
	seq      int
	wg       sync.WaitGroup
}

// New builds a service, reloading persisted sweeps when Options.Resume is
// set, and starts its in-process worker slots.
func New(o Options) (*Service, error) {
	if o.CacheDir == "" {
		return nil, errors.New("service: a cache directory is required")
	}
	if o.Jobs <= 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	tel := o.Telemetry
	ownTel := false
	if tel == nil {
		tel = telemetry.NewSweep(telemetry.SweepOptions{})
		ownTel = true
	}
	if o.PreemptSlice <= 0 {
		o.PreemptSlice = 500 * time.Millisecond
	}
	fs := o.FS
	if fs == nil {
		fs = faultio.OS{}
	}
	// The lease table, the slots, the runner and the service all log to
	// one writer: they take turns.
	o.Log = runner.SerializeWriter(o.Log)
	s := &Service{
		opts:      o,
		fs:        fs,
		tel:       tel,
		ownTel:    ownTel,
		wake:      make(chan struct{}),
		sweeps:    make(map[string]*sweepState),
		interrupt: make(chan struct{}),
	}
	s.lt = newLeaseTable(leaseTableOptions{
		Counts:       tel.Counts(),
		Log:          o.Log,
		TTL:          o.LeaseTTL,
		Preempt:      o.Preempt,
		PreemptSlice: o.PreemptSlice,
	})
	s.r = runner.New(runner.Options{
		// The runner's pool never blocks: every job parks in the lease
		// table, whose grants alone decide execution order. The runner
		// alone reads and writes the jobs' checkpoints and results.
		Jobs:      math.MaxInt32,
		CacheDir:  o.CacheDir,
		Log:       o.Log,
		Retries:   o.Retries,
		CkptEvery: o.CkptEvery,
		Interrupt: s.interrupt,
		Telemetry: tel,
		FS:        o.FS,
		Execute:   s.lt.execute,
	})
	tel.Counts().Workers.Store(int64(o.Jobs))
	if !o.Workers {
		// A zero Client backs off at Dial's defaults.
		s.local = newWorker(WorkerOptions{
			ID: "local", Slots: o.Jobs, Heartbeat: localHeartbeat, Log: o.Log,
		}, s.lt, (&Client{}).delay)
		s.local.Start()
	}
	if o.Resume {
		if err := s.reload(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Runner exposes the underlying sweep engine (for stats).
func (s *Service) Runner() *runner.Runner { return s.r }

// Telemetry exposes the service's telemetry surface.
func (s *Service) Telemetry() *telemetry.Sweep { return s.tel }

// sweepDoc is one persisted sweep: <cacheDir>/sweeps/<id>.json. It holds
// the submitted requests verbatim — job states are never persisted,
// because the content-addressed cache already knows which jobs finished:
// on resume every job re-admits, finished ones land as instant disk hits,
// and interrupted ones restore from their checkpoints.
type sweepDoc struct {
	Schema    int    `json:"schema"`
	ID        string `json:"id"`
	Cancelled bool   `json:"cancelled,omitempty"`
	Expired   bool   `json:"expired,omitempty"`
	// DeadlineUnixNano is the sweep's absolute deadline, persisted so a
	// restart honors (or immediately fires) it rather than forgetting it.
	DeadlineUnixNano int64            `json:"deadline_unix_nano,omitempty"`
	Requests         []runner.Request `json:"requests"`
}

// sweepDocSchema versions the persisted sweep file format.
const sweepDocSchema = 1

func (s *Service) sweepDir() string { return filepath.Join(s.opts.CacheDir, "sweeps") }

// persistLocked writes a sweep's document atomically (mu held). A write
// failure degrades durability — the sweep still runs — and is logged.
func (s *Service) persistLocked(sw *sweepState) {
	reqs := make([]runner.Request, len(sw.entries))
	for i, j := range sw.entries {
		reqs[i] = j.req
	}
	doc := sweepDoc{Schema: sweepDocSchema, ID: sw.id, Cancelled: sw.cancelled, Expired: sw.expired, Requests: reqs}
	if !sw.deadline.IsZero() {
		doc.DeadlineUnixNano = sw.deadline.UnixNano()
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err == nil {
		// The service's file plane (faultio.FS): fsync-hardened atomic
		// writes by default, injectable faults under test.
		err = s.fs.WriteFileAtomic(s.sweepDir(), filepath.Join(s.sweepDir(), sw.id+".json"), append(data, '\n'))
	}
	if err != nil && s.opts.Log != nil {
		fmt.Fprintf(s.opts.Log, "  sweep %s not persisted: %v\n", sw.id, err)
	}
}

// reload restores persisted sweeps (oldest id first). Every job of a live
// sweep is admitted again: the runner turns already-finished ones into
// instant disk hits and resumes interrupted ones from their checkpoints,
// so nothing re-simulates that does not have to.
func (s *Service) reload() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ents, err := os.ReadDir(s.sweepDir())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("service: reloading sweeps: %w", err)
	}
	for _, de := range ents {
		name := de.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := s.fs.ReadFile(filepath.Join(s.sweepDir(), name))
		if err != nil {
			continue
		}
		var doc sweepDoc
		if json.Unmarshal(data, &doc) != nil || doc.Schema != sweepDocSchema || doc.ID == "" {
			if s.opts.Log != nil {
				fmt.Fprintf(s.opts.Log, "  sweep file %s unusable, skipped\n", name)
			}
			continue
		}
		sw := buildSweep(doc.ID, doc.Requests)
		sw.cancelled = doc.Cancelled
		sw.expired = doc.Expired
		if doc.DeadlineUnixNano != 0 {
			sw.deadline = time.Unix(0, doc.DeadlineUnixNano)
		}
		switch {
		case sw.cancelled:
			for _, j := range sw.jobs {
				j.state = JobCancelled
			}
		case sw.expired:
			for _, j := range sw.jobs {
				j.state = JobExpired
			}
		case !sw.deadline.IsZero():
			// The deadline survived the restart: re-arm it, or fire it now
			// if it lapsed while the service was down.
			if until := time.Until(sw.deadline); until > 0 {
				id := sw.id
				sw.timer = time.AfterFunc(until, func() { s.expire(id) })
			} else {
				sw.expired = true
				for _, j := range sw.jobs {
					j.state = JobExpired
				}
				s.tel.Counts().Expired.Add(uint64(len(sw.jobs)))
			}
		}
		s.sweeps[sw.id] = sw
		if !sw.cancelled && !sw.expired {
			s.startLocked(sw)
		}
		if n := idSeq(doc.ID); n > s.seq {
			s.seq = n
		}
	}
	return nil
}

// idSeq extracts the numeric sequence from a sweep id ("s000012-ab34cd56").
func idSeq(id string) int {
	rest, ok := strings.CutPrefix(id, "s")
	if !ok {
		return 0
	}
	num, _, _ := strings.Cut(rest, "-")
	n, _ := strconv.Atoi(num)
	return n
}

// sweepID names a sweep: a monotone sequence number plus a content prefix
// over its job digests, so ids are stable across a persist/reload cycle
// and readable in logs.
func sweepID(seq int, jobs []*job) string {
	h := sha256.New()
	for _, j := range jobs {
		io.WriteString(h, j.digest)
		io.WriteString(h, "\n")
	}
	return fmt.Sprintf("s%06d-%s", seq, hex.EncodeToString(h.Sum(nil))[:8])
}

// buildSweep expands a request batch into a sweep: requests that
// normalize to the same digest collapse into one job (the runner would
// dedupe them anyway; collapsing here keeps the status counts honest).
func buildSweep(id string, reqs []runner.Request) *sweepState {
	sw := &sweepState{id: id}
	seen := make(map[string]*job)
	for _, q := range reqs {
		d := q.Digest()
		j, ok := seen[d]
		if !ok {
			j = &job{req: q, digest: d, state: JobQueued}
			seen[d] = j
			sw.jobs = append(sw.jobs, j)
		}
		sw.entries = append(sw.entries, j)
	}
	return sw
}

// Submit validates and admits one sweep with no deadline, returning its
// initial status (every job queued). Validation is all-or-nothing: one
// bad request rejects the batch, identified by its index.
func (s *Service) Submit(reqs []runner.Request) (*SweepStatus, error) {
	return s.SubmitDeadline(reqs, 0)
}

// SubmitDeadline is Submit with a wall-clock bound: once deadline (when
// positive) elapses, the sweep's still-queued jobs expire and in-flight
// ones are interrupted at their next checkpoint boundary. The admission
// queue is also enforced here: a batch that would push the pending-job
// count past Options.MaxQueued is rejected whole with ErrOverloaded.
func (s *Service) SubmitDeadline(reqs []runner.Request, deadline time.Duration) (*SweepStatus, error) {
	if len(reqs) == 0 {
		return nil, ErrEmptySweep
	}
	if deadline < 0 {
		return nil, &runner.FieldError{
			Field: "deadline_seconds", Value: deadline.String(),
			Err: fmt.Errorf("%w: deadline must not be negative", runner.ErrBadField),
		}
	}
	for i, q := range reqs {
		if err := q.Validate(); err != nil {
			return nil, fmt.Errorf("service: request %d: %w", i, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	sw := buildSweep("", reqs)
	if max := s.opts.MaxQueued; max > 0 {
		if pending := s.pendingLocked(); pending+len(sw.jobs) > max {
			s.tel.Counts().Overloaded.Add(1)
			return nil, fmt.Errorf("%w: %d jobs pending + %d submitted > limit %d",
				ErrOverloaded, pending, len(sw.jobs), max)
		}
	}
	s.seq++
	sw.id = sweepID(s.seq, sw.jobs)
	if deadline > 0 {
		sw.deadline = time.Now().Add(deadline)
		id := sw.id
		sw.timer = time.AfterFunc(deadline, func() { s.expire(id) })
	}
	s.sweeps[sw.id] = sw
	s.persistLocked(sw)
	s.startLocked(sw)
	return s.statusLocked(sw), nil
}

// startLocked hands every job of a sweep to the runner under the sweep's
// lane in the lease table (mu held).
func (s *Service) startLocked(sw *sweepState) {
	for _, j := range sw.jobs {
		s.lt.admit(sw.id, j.digest)
		s.wg.Add(1)
		go s.await(s.r.Submit(j.req), j, sw.id)
	}
}

// pendingLocked counts admitted-but-unfinished jobs across live sweeps —
// the admission queue's occupancy (mu held).
func (s *Service) pendingLocked() int {
	n := 0
	for _, sw := range s.sweeps {
		if sw.cancelled || sw.expired {
			continue
		}
		for _, j := range sw.jobs {
			if j.state == JobQueued {
				n++
			}
		}
	}
	return n
}

// expire marks a sweep past its deadline: still-queued jobs expire in
// place, leased jobs are interrupted at their next checkpoint boundary
// (classified as expired when they land), and the sweep's status turns
// terminal. Idempotent; a no-op for cancelled sweeps.
func (s *Service) expire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[id]
	if sw == nil || sw.cancelled || sw.expired {
		return
	}
	sw.expired = true
	s.tel.Counts().Expired.Add(s.settleQueuedLocked(sw, JobExpired))
	s.lt.disown(id, sw.digests()...)
	s.persistLocked(sw)
	s.wakeLocked()
}

// settleQueuedLocked moves a sweep's live jobs that hold no lease to a
// terminal state, returning how many moved (mu held). Leased jobs settle
// when their holder winds down (see await).
func (s *Service) settleQueuedLocked(sw *sweepState, state string) uint64 {
	n := uint64(0)
	for _, j := range sw.jobs {
		if j.state == JobQueued && !s.lt.leased(j.digest) {
			j.state = state
			n++
		}
	}
	return n
}

// digests lists the sweep's distinct job digests.
func (sw *sweepState) digests() []string {
	ds := make([]string, len(sw.jobs))
	for i, j := range sw.jobs {
		ds[i] = j.digest
	}
	return ds
}

// Status reports a sweep's current standing.
func (s *Service) Status(id string) (*SweepStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[id]
	if sw == nil {
		return nil, fmt.Errorf("%w: sweep %s", ErrNotFound, id)
	}
	return s.statusLocked(sw), nil
}

// heldStatus is Status held until the sweep turns terminal: it answers
// at the first of that, ctx ending and leaseHold elapsing, with the
// sweep's standing then.
func (s *Service) heldStatus(ctx context.Context, id string) (*SweepStatus, error) {
	hold, cancel := context.WithTimeout(ctx, leaseHold)
	defer cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		sw := s.sweeps[id]
		if sw == nil {
			return nil, fmt.Errorf("%w: sweep %s", ErrNotFound, id)
		}
		if sw.cancelled || sw.expired || sw.settled() || hold.Err() != nil {
			return s.statusLocked(sw), nil
		}
		s.waitLocked(hold.Done())
	}
}

// Cancel cancels a sweep: queued jobs never run, leased jobs are
// interrupted (capturing a final checkpoint when checkpointing is on) —
// unless another live sweep also owns them, in which case they keep
// running for that sweep. Cancelling an already-cancelled sweep is a
// no-op that reports the current status.
func (s *Service) Cancel(id string) (*SweepStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[id]
	if sw == nil {
		return nil, fmt.Errorf("%w: sweep %s", ErrNotFound, id)
	}
	if !sw.cancelled {
		sw.cancelled = true
		if sw.timer != nil {
			sw.timer.Stop()
		}
		s.settleQueuedLocked(sw, JobCancelled)
		s.lt.disown(id, sw.digests()...)
		s.persistLocked(sw)
		s.wakeLocked()
	}
	return s.statusLocked(sw), nil
}

// digestRe is the shape of a canonical content digest (hex sha256); a
// path parameter that does not match names nothing and is also never
// allowed near the filesystem.
var digestRe = regexp.MustCompile(`^[0-9a-f]{64}$`)

// Result returns the raw persisted cache document for a finished job —
// the same bytes a local sweep's runner persists, so remote and local
// results are byte-identical. The runner validates the
// document before serving it: a torn or corrupted file (a crash, a full
// disk, an injected fault) is evicted and the result re-materialized from
// the runner's in-memory outcome when it has one — so a storage fault
// degrades to a re-run, never to serving garbage.
func (s *Service) Result(digest string) ([]byte, error) {
	if !digestRe.MatchString(digest) {
		return nil, fmt.Errorf("%w: job %q", ErrNotFound, digest)
	}
	if data, err := s.r.EntryBytes(digest); err == nil {
		return data, nil
	}
	return nil, fmt.Errorf("%w: job %s", ErrNotFound, digest)
}

// SpanOf returns a finished job's trace span while the tracer still
// retains it.
func (s *Service) SpanOf(digest string) (Span, error) {
	if sp, ok := s.tel.Tracer().Find(digest); ok {
		return sp, nil
	}
	return Span{}, fmt.Errorf("%w: span for job %s", ErrNotFound, digest)
}

// statusLocked snapshots one sweep (mu held).
func (s *Service) statusLocked(sw *sweepState) *SweepStatus {
	st := &SweepStatus{Schema: runner.WireSchema, ID: sw.id, Retries: s.r.Stats().Retries}
	for _, j := range sw.entries {
		state := j.state
		if state == JobQueued && s.lt.leased(j.digest) {
			state = JobRunning
		}
		st.Jobs = append(st.Jobs, JobStatus{
			Digest: j.digest, Request: j.req, State: state,
			Cached: j.cached, Error: j.errMsg,
		})
		switch state {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
		case JobDone:
			st.Done++
		case JobFailed:
			st.Failed++
		case JobCancelled:
			st.Cancelled++
		case JobExpired:
			st.Expired++
		}
	}
	switch {
	case sw.cancelled:
		st.State = SweepCancelled
	case sw.expired:
		st.State = SweepExpired
	case st.Queued+st.Running > 0:
		if st.Running+st.Done+st.Failed > 0 {
			st.State = SweepRunning
		} else {
			st.State = SweepQueued
		}
	case st.Failed > 0:
		st.State = SweepFailed
	case st.Cancelled > 0:
		st.State = SweepCancelled
	default:
		st.State = SweepDone
	}
	if remaining := st.Queued + st.Running; remaining > 0 {
		st.ETASeconds = s.tel.Progress().ETA(uint64(remaining))
	}
	return st
}

// await settles one admitted job from its runner task, then drops the
// sweep's claim on it. A job already settled in place (cancelled or
// expired while queued) keeps its state.
func (s *Service) await(t *runner.Task, j *job, owner string) {
	defer s.wg.Done()
	out, err := t.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[owner]
	for errors.Is(err, machine.ErrInterrupted) && j.state == JobQueued &&
		!sw.cancelled && !sw.expired && !s.draining {
		// The runner deduped this job onto a task the lease table had
		// withdrawn before this sweep claimed it: nothing cancelled this
		// sweep, so run it afresh.
		t = s.r.Submit(j.req)
		s.mu.Unlock()
		out, err = t.Wait()
		s.mu.Lock()
	}
	if j.state == JobQueued {
		switch {
		case err == nil:
			j.state = JobDone
			j.cached = out.Cached
		case errors.Is(err, machine.ErrInterrupted):
			if sw.expired {
				j.state = JobExpired
				s.tel.Counts().Expired.Add(1)
			} else {
				j.state = JobCancelled
			}
		default:
			j.state = JobFailed
			j.errMsg = err.Error()
		}
	}
	s.lt.disown(owner, j.digest)
	s.wakeLocked()
}

// wakeLocked wakes every Wait and held status call (mu held).
func (s *Service) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// Wait blocks until every admitted job has settled: nothing queued,
// nothing leased. Mostly for tests and one-shot hosts.
func (s *Service) Wait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.idleLocked() {
		s.waitLocked(nil)
	}
}

// waitLocked releases mu until the next wake or until done closes (mu
// held on entry and return).
func (s *Service) waitLocked(done <-chan struct{}) {
	wake := s.wake
	s.mu.Unlock()
	defer s.mu.Lock()
	select {
	case <-wake:
	case <-done:
	}
}

func (s *Service) idleLocked() bool {
	for _, sw := range s.sweeps {
		if !sw.settled() {
			return false
		}
	}
	return true
}

// settled reports whether every job of the sweep has settled (mu held).
func (sw *sweepState) settled() bool {
	for _, j := range sw.jobs {
		if j.state == JobQueued {
			return false
		}
	}
	return true
}

// Drain stops admission, has the in-process slots checkpoint and release
// their leases, interrupts every live job, and waits for all of them to
// settle. Queued jobs stay in their persisted sweep documents and
// shipped checkpoints stay on disk; a restart with Options.Resume picks
// them back up. Drain is idempotent.
func (s *Service) Drain() {
	s.mu.Lock()
	first := !s.draining
	if first {
		s.draining = true
		for _, sw := range s.sweeps {
			if sw.timer != nil {
				sw.timer.Stop()
			}
		}
	}
	s.mu.Unlock()
	if s.local != nil {
		s.local.Drain()
	}
	if first {
		// Wakes jobs in retry backoff and stops those that have not
		// reached the lease table yet.
		close(s.interrupt)
	}
	// Every parked job finishes with machine.ErrInterrupted — fleet
	// leases included — so the await goroutines below can drain.
	s.lt.close()
	s.wg.Wait()
}

// Close drains the service and releases the runner's and (when owned)
// the telemetry surface's resources.
func (s *Service) Close() error {
	s.Drain()
	err := s.r.Close()
	if s.ownTel {
		if e := s.tel.Close(); err == nil {
			err = e
		}
	}
	return err
}
