package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dynamo/internal/checkpoint"
	"dynamo/internal/machine"
	"dynamo/internal/runner"
)

// WorkerOptions configures a fleet Worker.
type WorkerOptions struct {
	// Addr is the sweep server ("host:port", scheme optional). Required.
	Addr string
	// ID names this worker in leases and telemetry (default "host:pid").
	ID string
	// Slots bounds jobs executing concurrently in this process (default 1).
	Slots int
	// TTL is the lease TTL to request; zero takes the server default.
	TTL time.Duration
	// Heartbeat is the lease-renewal cadence; zero derives a third of the
	// granted TTL, so two beats can be lost before the lease expires.
	Heartbeat time.Duration
	// Execute replaces local simulation (runner.ExecuteLocal) — the test
	// seam for slow, failing or zombie jobs. Either runs under
	// runner.Execute's panic guard and unusable-checkpoint restart.
	Execute func(runner.Request, runner.ExecOptions) (*runner.Outcome, error)
	// Transport, when non-nil, replaces the HTTP transport — the seam
	// faultio.WrapTransport plugs into so lease/heartbeat/commit loss is
	// injectable.
	Transport http.RoundTripper
	// Log, when non-nil, receives one line per lease/commit/release event.
	// The worker's slots take turns, so Log need not be safe for
	// concurrent use.
	Log io.Writer
}

// WorkerStats counts what a worker did.
type WorkerStats struct {
	// Leases counts grants received; Resumed of those, grants carrying a
	// checkpoint the execution restored from.
	Leases  uint64
	Resumed uint64
	// Executed counts executions run to a natural end (success or
	// failure); Committed of those, commits the server accepted, with
	// Duplicates the byte-identical re-sends acknowledged idempotently.
	Executed   uint64
	Committed  uint64
	Duplicates uint64
	// Failed counts error commits (the job itself failed); Fenced counts
	// commits the server rejected as stale; Abandoned counts jobs dropped
	// because the lease was lost mid-run; Released counts jobs handed
	// back gracefully (drain or server-requested yield).
	Failed    uint64
	Fenced    uint64
	Abandoned uint64
	Released  uint64
}

// workAPI is the lease protocol a Worker speaks: *Client over HTTP for a
// fleet process, the lease table itself for the service's in-process
// slots.
type workAPI interface {
	Lease(ctx context.Context, worker string, ttl time.Duration) (*LeaseGrant, error)
	Heartbeat(ctx context.Context, digest, worker string, fence uint64, ckpt []byte, release bool) (*HeartbeatReply, error)
	Commit(ctx context.Context, digest, worker string, fence uint64, entry []byte, errMsg, errKind string) (*CommitReply, error)
}

// Worker pulls jobs under TTL leases, executes them locally, heartbeats
// (shipping checkpoints) while they run, and commits results under the
// lease's fencing token — as a fleet process over HTTP, or as the sweep
// service's own in-process slots. SIGTERM-style drain is cooperative:
// Drain interrupts in-flight jobs at their next checkpoint boundary,
// ships the final checkpoint, releases the leases, and returns —
// finish-or-checkpoint, never abandon-silently.
type Worker struct {
	opts WorkerOptions
	api  workAPI
	// delay paces lease attempts after an error (the client's jittered
	// exponential backoff).
	delay func(attempt int) time.Duration
	id    string

	// ctx ends when Drain cancels it: the slots stop leasing, and held
	// lease calls, backoffs and in-flight jobs wind down.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	started bool
	stats   WorkerStats
}

// NewWorker builds a fleet worker speaking HTTP to o.Addr (not yet
// running — call Start).
func NewWorker(o WorkerOptions) *Worker {
	c := Dial(o.Addr)
	if o.Transport != nil {
		c.HTTP = &http.Client{Transport: o.Transport}
	}
	return newWorker(o, c, c.delay)
}

// newWorker builds a worker over any lease protocol endpoint.
func newWorker(o WorkerOptions, api workAPI, delay func(int) time.Duration) *Worker {
	if o.Slots <= 0 {
		o.Slots = 1
	}
	o.Log = runner.SerializeWriter(o.Log)
	if o.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		o.ID = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Worker{opts: o, api: api, delay: delay, id: o.ID, ctx: ctx, cancel: cancel}
}

// ID returns the worker's lease identity.
func (w *Worker) ID() string { return w.id }

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Start launches the worker's slot loops. Idempotent.
func (w *Worker) Start() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.started {
		return
	}
	w.started = true
	for i := 0; i < w.opts.Slots; i++ {
		w.wg.Add(1)
		go w.slot()
	}
}

// Drain stops leasing new work, interrupts in-flight jobs at their next
// checkpoint boundary (shipping the final checkpoint and releasing each
// lease), and waits for every slot to wind down. Idempotent.
func (w *Worker) Drain() {
	w.cancel()
	w.wg.Wait()
}

// slot is one lease→execute→commit loop. The server holds a lease call
// open until work arrives, so an empty reply is simply asked again. The
// slot owns one arena, which each job it executes builds its machine
// from and hands back to.
func (w *Worker) slot() {
	defer w.wg.Done()
	arena := new(machine.Arena)
	fails := 0
	for w.ctx.Err() == nil {
		g, err := w.api.Lease(w.ctx, w.id, w.opts.TTL)
		if err != nil {
			if w.ctx.Err() != nil {
				return
			}
			// Server restarting or draining: back off and ask again — the
			// fleet outlives server incarnations.
			w.logf("lease: %v", err)
			if !sleepCtx(w.ctx, w.delay(fails)) {
				return
			}
			fails++
			continue
		}
		fails = 0
		if g != nil {
			w.count(func(s *WorkerStats) { s.Leases++ })
			w.work(g, arena)
		}
	}
}

// callCtx bounds a wind-down call (commit, release) that must still work
// while the worker drains.
func callCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 15*time.Second)
}

// work executes one granted job under its lease, on the slot's arena.
func (w *Worker) work(g *LeaseGrant, arena *machine.Arena) {
	digest := g.Digest
	w.logf("leased %s (fence %d, attempt %d)", short(digest), g.Fence, g.Attempt)

	// The grant's checkpoint resumes the job where the last leaseholder
	// left it. An unreadable or misattributed document starts the job from
	// event zero; runner.Execute restarts one that no longer replays.
	var resume *checkpoint.Checkpoint
	if len(g.Checkpoint) > 0 {
		if ck, err := checkpoint.Read(bytes.NewReader(g.Checkpoint)); err == nil && ck.Compatible(digest) == nil {
			resume = ck
			w.count(func(s *WorkerStats) { s.Resumed++ })
			w.logf("resuming %s from event %d", short(digest), ck.Event)
		}
	}

	// latest is the newest unshipped checkpoint; the heartbeat loop
	// encodes and ships it. due gates periodic capture: each heartbeat
	// arms it and a capture disarms it, so the run captures at the first
	// checkpoint boundary after each heartbeat, and only checkpoints the
	// next heartbeat ships. lost records that the lease was lost, which
	// abandons the job.
	var (
		jmu    sync.Mutex
		latest *checkpoint.Checkpoint
		lost   bool
		due    atomic.Bool
	)

	// The heartbeat loop renews the lease and ships checkpoints until the
	// run ends, and is the one place that interrupts the run, once: on a
	// drain (it beats on while the run winds down), a yield reply (the
	// run checkpoints, then releases below) or a lost lease (410/409).
	intr := make(chan struct{})
	interval := w.opts.Heartbeat
	if interval <= 0 {
		interval = time.Until(time.Unix(0, g.ExpiresUnixNano)) / 3
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		drain := w.ctx.Done() // nil once the run is interrupted
		for {
			select {
			case <-hbStop:
				return
			case <-drain:
				close(intr)
				drain = nil
				continue
			case <-t.C:
			}
			jmu.Lock()
			ck := latest
			latest = nil
			jmu.Unlock()
			due.Store(true)
			ctx, cancel := callCtx()
			hb, err := w.api.Heartbeat(ctx, digest, w.id, g.Fence, encodeCkpt(ck), false)
			cancel()
			switch {
			case errors.Is(err, ErrLeaseExpired) || errors.Is(err, ErrStaleCommit):
				w.logf("lease on %s lost: %v", short(digest), err)
				lost = true
			case err != nil:
				// Transport flake: requeue the unshipped checkpoint (unless
				// a newer one landed meanwhile) and keep beating.
				jmu.Lock()
				if latest == nil {
					latest = ck
				}
				jmu.Unlock()
				continue
			case hb.Yield:
				// Cancelled or preempted server-side.
				w.logf("server asked %s to yield", short(digest))
			default:
				continue
			}
			if drain != nil {
				close(intr)
			}
			return
		}
	}()

	// Execute locally. Checkpoints flow into latest for the heartbeat
	// loop; CkptEvery comes from the grant so the server's cadence policy
	// holds fleet-wide.
	x := runner.ExecOptions{Resume: resume, Interrupt: intr, Arena: arena}
	if g.CkptEvery > 0 {
		x.CkptEvery = g.CkptEvery
		x.CkptDue = func() bool { return due.Swap(false) }
		x.Sink = func(ck *checkpoint.Checkpoint) {
			jmu.Lock()
			latest = ck
			jmu.Unlock()
		}
	}
	start := time.Now()
	out, err := runner.Execute(w.opts.Execute, g.Request, x)
	elapsed := time.Since(start)
	close(hbStop)
	<-hbDone // from here on this goroutine alone reads lost and latest

	switch {
	case err == nil:
		w.count(func(s *WorkerStats) { s.Executed++ })
		w.commit(g, out, elapsed)
	case errors.Is(err, machine.ErrInterrupted):
		if lost {
			// Someone else owns the job now; nothing to hand back.
			w.count(func(s *WorkerStats) { s.Abandoned++ })
			return
		}
		// Drain or server-requested yield: ship the final checkpoint and
		// release, so the next leaseholder resumes instead of restarting.
		ctx, cancel := callCtx()
		_, rerr := w.api.Heartbeat(ctx, digest, w.id, g.Fence, encodeCkpt(latest), true)
		cancel()
		if rerr != nil {
			w.logf("release of %s failed: %v", short(digest), rerr)
			w.count(func(s *WorkerStats) { s.Abandoned++ })
			return
		}
		w.count(func(s *WorkerStats) { s.Released++ })
		w.logf("released %s", short(digest))
	default:
		// The job itself failed: commit the error (with its transient
		// kind) so the server's retry/quarantine policy applies.
		w.count(func(s *WorkerStats) { s.Executed++; s.Failed++ })
		ctx, cancel := callCtx()
		_, cerr := w.api.Commit(ctx, digest, w.id, g.Fence, nil, err.Error(), errorKind(err))
		cancel()
		if cerr != nil {
			w.logf("error commit for %s rejected: %v", short(digest), cerr)
			if errors.Is(cerr, ErrStaleCommit) || errors.Is(cerr, ErrLeaseExpired) {
				w.count(func(s *WorkerStats) { s.Fenced++ })
			}
		}
		w.logf("failed %s: %v", short(digest), err)
	}
}

// encodeCkpt serializes a checkpoint for a heartbeat; nil ships none.
func encodeCkpt(ck *checkpoint.Checkpoint) []byte {
	if ck == nil {
		return nil
	}
	var buf bytes.Buffer
	_ = checkpoint.Write(&buf, ck) // writes to a bytes.Buffer cannot fail
	return buf.Bytes()
}

// commit encodes and commits a successful outcome under the lease's
// fencing token.
func (w *Worker) commit(g *LeaseGrant, out *runner.Outcome, elapsed time.Duration) {
	digest := g.Digest
	entry, err := runner.EncodeEntry(g.Request, out, elapsed)
	if err != nil {
		ctx, cancel := callCtx()
		w.api.Commit(ctx, digest, w.id, g.Fence, nil, err.Error(), "")
		cancel()
		w.count(func(s *WorkerStats) { s.Failed++ })
		return
	}
	ctx, cancel := callCtx()
	cr, cerr := w.api.Commit(ctx, digest, w.id, g.Fence, entry, "", "")
	cancel()
	switch {
	case cerr == nil:
		w.count(func(s *WorkerStats) {
			s.Committed++
			if cr.Duplicate {
				s.Duplicates++
			}
		})
		w.logf("committed %s (%s)", short(digest), elapsed.Round(time.Millisecond))
	case errors.Is(cerr, ErrStaleCommit), errors.Is(cerr, ErrLeaseExpired):
		// The lease moved on while we executed: the result is fenced —
		// at-most-once means the new leaseholder's commit wins, and
		// determinism means nothing of value was lost.
		w.count(func(s *WorkerStats) { s.Fenced++ })
		w.logf("commit of %s fenced: %v", short(digest), cerr)
	default:
		w.count(func(s *WorkerStats) { s.Abandoned++ })
		w.logf("commit of %s failed: %v", short(digest), cerr)
	}
}

func (w *Worker) count(f func(*WorkerStats)) {
	w.mu.Lock()
	f(&w.stats)
	w.mu.Unlock()
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Log == nil {
		return
	}
	fmt.Fprintf(w.opts.Log, "  [%s] "+format+"\n", append([]any{w.id}, args...)...)
}
