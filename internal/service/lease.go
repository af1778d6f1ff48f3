package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"dynamo/internal/checkpoint"
	"dynamo/internal/machine"
	"dynamo/internal/runner"
	"dynamo/internal/telemetry"
)

// ErrLeaseExpired rejects a work call whose lease no longer exists: the
// TTL lapsed (the expiry scanner revoked it), the job was withdrawn, or
// the digest was never leased to begin with. HTTP 410 on the wire, kind
// "lease-expired". The worker's move is to abandon the job — a new
// leaseholder owns it now.
var ErrLeaseExpired = errors.New("service: lease expired")

// ErrStaleCommit rejects a commit bearing a fencing token that is not the
// job's live lease: the result arrived after the lease was revoked and
// the job re-granted (or already committed by someone else). HTTP 409 on
// the wire, kind "stale-commit". Byte-identical duplicates of the
// committed entry are the one exception — those are acknowledged
// idempotently, never fenced.
var ErrStaleCommit = errors.New("service: stale commit fenced")

// errWithdrawn settles an item no sweep wants any more, and refuses a job
// no sweep claims.
var errWithdrawn = fmt.Errorf("service: job withdrawn: %w", machine.ErrInterrupted)

// workItem states.
const (
	workPending = iota // queued, waiting for a worker to lease it
	workLeased         // held by a worker under a live TTL lease
	workDone           // finished (committed, failed, or withdrawn)
)

// workItem is one job flowing through the lease table. Exactly one live
// item exists per digest (the runner dedupes submissions); a finished
// item stays registered so late duplicate commits can be told apart from
// divergent ones, but keeps only what that check reads once its execute
// call has returned.
type workItem struct {
	digest string
	req    runner.Request
	// admission is the sweep lane the item is scheduled under (see
	// grantLocked) and the number that orders it there (see queueLocked).
	admission
	state int
	// fence is the monotone fencing token of the item's latest grant.
	// Heartbeats and commits must present it; after a revocation the next
	// grant draws a strictly larger token, fencing the old holder out.
	fence   uint64
	worker  string
	ttl     time.Duration
	granted time.Time // when the live lease began (the preemption floor)
	expires time.Time
	attempt int
	// withdrawn marks an item no sweep wants any more (see disown), and
	// yield a lease picked to give up its slice to a starved sweep. Either
	// way the holder learns via the Yield bit on its next heartbeat and
	// releases; a withdrawn item then finishes interrupted, a yielded one
	// requeues.
	withdrawn bool
	yield     bool
	// ckpt is the latest checkpoint document — the runner's resume
	// checkpoint, then each shipped one; it seeds the next grant so a
	// revoked job resumes instead of restarting. ckptEvery is the cadence
	// grants advertise; sink is the runner's, which persists each shipped
	// checkpoint.
	ckpt      []byte
	ckptEvery uint64
	sink      func(*checkpoint.Checkpoint)
	// committed + entryHash identify the accepted result's exact bytes,
	// the basis of idempotent duplicate detection.
	committed bool
	entryHash [sha256.Size]byte

	out  *runner.Outcome
	err  error
	done chan struct{}
}

// leaseTableOptions configures a leaseTable.
type leaseTableOptions struct {
	// Counts is the block the table counts into; nil gives the table a
	// block of its own.
	Counts *telemetry.Counts
	Log    io.Writer
	TTL    time.Duration // default lease TTL
	// Preempt and PreemptSlice: see Options.
	Preempt      bool
	PreemptSlice time.Duration
}

// leaseTable is the service's only scheduler, and an in-memory one: every
// job the runner does not answer from its cache parks here, and workers —
// in-process slots and fleet processes alike — pull jobs under TTL
// leases. The runner owns the job's files; the table relays the runner's
// resume checkpoint to grants and shipped checkpoints to the runner's
// sink. Grant order is round-robin across sweeps; preemption asks one
// lease to yield at its next checkpoint; the expiry scanner treats a
// missed heartbeat as worker death — the lease is revoked, the job
// requeued to resume from its last shipped checkpoint, and any later
// commit bearing the stale fencing token rejected. Commits are
// at-most-once per digest: idempotent for byte-identical duplicates, a
// structured ErrStaleCommit otherwise.
type leaseTable struct {
	opts   leaseTableOptions
	counts *telemetry.Counts

	mu    sync.Mutex
	items map[string]*workItem
	// claims maps each digest some sweep still wants to its claim (see
	// admit and disown). Every sweep has a lane: queues holds each
	// lane's pending digests in FIFO order (exactly the pending items;
	// lanes without any are absent), and served stamps each lane with the
	// fence of its latest grant.
	claims   map[string]*claim
	admitted uint64
	queues   map[string][]string
	served   map[string]uint64
	fence    uint64 // global monotone fencing-token source
	// workers holds each worker's lease count; counts.FleetWorkers
	// mirrors its length.
	workers map[string]int
	// waiting counts lease calls parked for work; wake is closed (and
	// replaced) whenever work is queued or the table closes.
	waiting int
	wake    chan struct{}
	closed  bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

// scanTick is the expiry scanner's cadence: a revoked lease is detected
// at most one tick after its TTL lapses, and a starved sweep waits at most
// one tick for its preemption victim to be picked.
const scanTick = 25 * time.Millisecond

// leaseHold bounds a held call: how long a lease call waits for work
// before returning empty (204 on the wire), and how long a held status
// call waits for its sweep to turn terminal. An idle worker slot or a
// waiting client costs one call per hold, and queued work is granted, and
// a settled sweep reported, the moment it happens.
const leaseHold = 500 * time.Millisecond

func newLeaseTable(o leaseTableOptions) *leaseTable {
	if o.TTL <= 0 {
		o.TTL = 10 * time.Second
	}
	if o.Counts == nil {
		o.Counts = new(telemetry.Counts)
	}
	t := &leaseTable{
		opts:    o,
		counts:  o.Counts,
		items:   make(map[string]*workItem),
		claims:  make(map[string]*claim),
		queues:  make(map[string][]string),
		served:  make(map[string]uint64),
		workers: make(map[string]int),
		wake:    make(chan struct{}),
		stop:    make(chan struct{}),
	}
	t.wg.Add(1)
	go t.scan()
	return t
}

// admission is one admit call: the sweep whose lane a digest joins and
// the admission's number.
type admission struct {
	lane string
	seq  uint64
}

// claim is the set of sweeps that still want one digest, plus the
// digest's latest admission, whose lane its item is scheduled under.
type claim struct {
	admission
	sweeps map[string]bool
}

// admit records that sweep wants digest and schedules the digest under
// sweep's lane. The service calls it for every job it admits, in
// submission order, before the job can reach execute.
func (t *leaseTable) admit(sweep, digest string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.claims[digest]
	if c == nil {
		c = &claim{sweeps: make(map[string]bool)}
		t.claims[digest] = c
	}
	t.admitted++
	c.admission = admission{lane: sweep, seq: t.admitted}
	c.sweeps[sweep] = true
}

// disown records that sweep no longer wants digests (it finished,
// failed, was cancelled or expired). A digest no sweep wants any more
// loses its claim and its item is withdrawn. A claim is never empty, so
// disowning a digest the sweep does not claim changes nothing.
func (t *leaseTable) disown(sweep string, digests ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range digests {
		c := t.claims[d]
		if c == nil {
			continue
		}
		delete(c.sweeps, sweep)
		if len(c.sweeps) == 0 {
			delete(t.claims, d)
			if it := t.items[d]; it != nil {
				t.withdrawLocked(it)
			}
		}
	}
}

// leased reports whether digest is held under a live lease — the
// service's definition of a running job.
func (t *leaseTable) leased(digest string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	it := t.items[digest]
	return it != nil && it.state == workLeased
}

// execute is the runner.Options.Execute seam: it parks one deduped job in
// the lease table and blocks until a worker commits it, the job is
// withdrawn or the table closes. A job no sweep claims is refused. The
// runner keeps its retry, telemetry and stats semantics and its files;
// the lease table decides when and where the job runs.
func (t *leaseTable) execute(q runner.Request, x runner.ExecOptions) (*runner.Outcome, error) {
	digest := q.Digest()
	it := &workItem{digest: digest, req: q, ckptEvery: x.CkptEvery, sink: x.Sink, done: make(chan struct{})}
	if x.Resume != nil {
		// The runner's resume checkpoint (shipped before a server restart,
		// or captured by an earlier leaseholder) seeds the first grant, so
		// the job resumes instead of restarting from event zero.
		it.ckpt = encodeCkpt(x.Resume)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("service: lease table closed: %w", machine.ErrInterrupted)
	}
	c := t.claims[digest]
	if c == nil {
		// Every sweep gave the job up before it got here.
		t.mu.Unlock()
		return nil, errWithdrawn
	}
	it.admission = c.admission
	t.items[digest] = it
	t.queueLocked(it, false)
	t.mu.Unlock()

	<-it.done
	t.mu.Lock()
	out, err := it.out, it.err
	// From here on the item serves only the duplicate-commit check, which
	// reads its state, committed, entryHash and fence: drop the payload, so
	// the table does not keep every job it has run.
	it.out, it.req, it.sink, it.ckpt = nil, runner.Request{}, nil, nil
	t.mu.Unlock()
	return out, err
}

// withdrawLocked takes an item back from the workers (mu held). A pending
// item settles at once; a leased one winds down through its holder —
// told to yield on its next heartbeat, finish-or-checkpoint, then
// release — or through lease expiry if the holder is already dead. A
// commit that races the withdrawal wins: a finished result is never
// thrown away.
func (t *leaseTable) withdrawLocked(it *workItem) {
	switch it.state {
	case workPending:
		t.unqueueLocked(it)
		t.finishLocked(it, nil, errWithdrawn)
	case workLeased:
		it.withdrawn = true
	}
}

// Lease grants the next pending job to worker under a TTL lease. With
// nothing pending it waits up to leaseHold for work, returning early when
// ctx ends; nil means none arrived (204 on the wire).
func (t *leaseTable) Lease(ctx context.Context, worker string, ttl time.Duration) (*LeaseGrant, error) {
	if worker == "" {
		return nil, &runner.FieldError{
			Field: "worker",
			Err:   fmt.Errorf("%w: a worker id is required", runner.ErrBadField),
		}
	}
	switch {
	case ttl <= 0:
		ttl = t.opts.TTL
	case ttl < 2*scanTick:
		ttl = 2 * scanTick
	case ttl > 10*time.Minute:
		ttl = 10 * time.Minute
	}
	hold := time.NewTimer(leaseHold)
	defer hold.Stop()
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.closed {
			return nil, ErrDraining
		}
		if ctx.Err() != nil {
			// The caller is gone: a grant now would sit unclaimed until
			// its TTL lapsed.
			return nil, nil
		}
		if g := t.grantLocked(worker, ttl); g != nil {
			return g, nil
		}
		wake := t.wake
		t.waiting++
		t.mu.Unlock()
		woke := false
		select {
		case <-wake:
			woke = true
		case <-ctx.Done():
		case <-hold.C:
		}
		t.mu.Lock()
		t.waiting--
		if !woke {
			return nil, nil
		}
	}
}

// grantLocked leases the next pending item to worker, or returns nil
// (mu held). The next item comes from the least recently served lane —
// round-robin across sweeps with pending work, so a thousand-job sweep
// cannot starve a one-job sweep submitted after it, and a newly arrived
// sweep goes next. Ties go to the older sweep: sweep ids sort in
// admission order.
func (t *leaseTable) grantLocked(worker string, ttl time.Duration) *LeaseGrant {
	if len(t.queues) == 0 {
		return nil
	}
	lane, found := "", false
	for id := range t.queues {
		if !found || t.served[id] < t.served[lane] || t.served[id] == t.served[lane] && id < lane {
			lane, found = id, true
		}
	}
	q := t.queues[lane]
	it := t.items[q[0]]
	if len(q) == 1 {
		delete(t.queues, lane)
	} else {
		t.queues[lane] = q[1:]
	}
	t.fence++
	t.served[lane] = t.fence
	now := time.Now()
	it.state = workLeased
	it.fence = t.fence
	it.worker = worker
	it.ttl = ttl
	it.granted = now
	it.expires = now.Add(ttl)
	it.attempt++
	t.workers[worker]++
	t.counts.FleetWorkers.Store(int64(len(t.workers)))
	t.counts.LeaseGranted.Add(1)
	t.logf("leased %s to %s (fence %d, attempt %d)", short(it.digest), worker, it.fence, it.attempt)
	g := &LeaseGrant{
		Schema:          runner.WireSchema,
		Digest:          it.digest,
		Request:         it.req,
		Fence:           it.fence,
		Attempt:         it.attempt,
		ExpiresUnixNano: it.expires.UnixNano(),
		CkptEvery:       it.ckptEvery,
	}
	if len(it.ckpt) > 0 {
		g.Checkpoint = append([]byte(nil), it.ckpt...)
		// The runner counted the resume checkpoint it handed over; only a
		// re-grant resumes anew.
		if it.attempt > 1 {
			t.counts.Resumed.Add(1)
		}
	}
	return g
}

// Heartbeat extends a live lease, keeps a shipped checkpoint for the next
// grant and hands it to the runner's sink, and — with release — hands the
// job back to the queue.
func (t *leaseTable) Heartbeat(_ context.Context, digest, worker string, fence uint64, ckpt []byte, release bool) (*HeartbeatReply, error) {
	// Verify a shipped checkpoint before taking the lock: it needs
	// nothing from the table, and reading a large one takes tens of
	// milliseconds. A dead lease still outranks a bad checkpoint in the
	// reply.
	var (
		ck    *checkpoint.Checkpoint
		ckErr error
	)
	if len(ckpt) > 0 {
		if ck, ckErr = checkpoint.Read(bytes.NewReader(ckpt)); ckErr == nil {
			ckErr = ck.Compatible(digest)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	it := t.items[digest]
	if it == nil || it.state != workLeased || it.fence != fence || it.worker != worker {
		return nil, fmt.Errorf("%w: no live lease on %s under fence %d for %s",
			ErrLeaseExpired, short(digest), fence, worker)
	}
	if ckErr != nil {
		return nil, &runner.FieldError{
			Field: "checkpoint",
			Err:   fmt.Errorf("%w: %v", runner.ErrBadField, ckErr),
		}
	}
	if ck != nil {
		it.ckpt = append([]byte(nil), ckpt...)
		// The runner persists it. Called under mu, so no shipped checkpoint
		// lands after the commit that makes it stale.
		if it.sink != nil {
			it.sink(ck)
		}
		t.counts.Shipped.Add(1)
	}
	if release {
		if it.yield && !it.withdrawn {
			t.counts.Preempted.Add(1)
		}
		t.endLeaseLocked(it)
		t.counts.LeaseReleased.Add(1)
		t.logf("released %s (fence %d)", short(digest), fence)
		t.returnLocked(it)
		return &HeartbeatReply{Schema: runner.WireSchema, Released: true}, nil
	}
	it.expires = time.Now().Add(it.ttl)
	return &HeartbeatReply{
		Schema:          runner.WireSchema,
		ExpiresUnixNano: it.expires.UnixNano(),
		Yield:           it.withdrawn || it.yield,
	}, nil
}

// Commit settles one job under its fencing token — at-most-once per
// digest. A byte-identical duplicate of the committed entry is
// acknowledged idempotently; any other stale commit is fenced with
// ErrStaleCommit and counted.
func (t *leaseTable) Commit(_ context.Context, digest, worker string, fence uint64, entry []byte, errMsg, errKind string) (*CommitReply, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	it := t.items[digest]
	if it == nil {
		return nil, fmt.Errorf("%w: no work item for %s", ErrLeaseExpired, short(digest))
	}
	if it.state == workDone {
		if it.committed && len(entry) > 0 && sha256.Sum256(entry) == it.entryHash {
			t.counts.CommitDuplicate.Add(1)
			return &CommitReply{Schema: runner.WireSchema, Committed: true, Duplicate: true}, nil
		}
		t.counts.CommitFenced.Add(1)
		return nil, fmt.Errorf("%w: job %s already settled (fence %d)", ErrStaleCommit, short(digest), it.fence)
	}
	if it.state != workLeased || it.fence != fence {
		t.counts.CommitFenced.Add(1)
		return nil, fmt.Errorf("%w: fence %d is not the live lease on %s", ErrStaleCommit, fence, short(digest))
	}
	if errMsg != "" {
		t.endLeaseLocked(it)
		t.counts.LeaseCommitted.Add(1)
		t.counts.CommitFailed.Add(1)
		t.finishLocked(it, nil, commitError(errMsg, errKind))
		t.logf("job %s failed on %s: %s", short(digest), worker, errMsg)
		return &CommitReply{Schema: runner.WireSchema, Committed: true}, nil
	}
	out, _, derr := runner.DecodeEntryFor(it.req, entry)
	if derr != nil {
		// A malformed entry, or one answering another request (a worker
		// built at another ConfigSchema), is the caller's bug, not a
		// fencing event: the lease stays live, so a corrected commit can
		// still land, or the job requeues on expiry for another worker.
		return nil, &runner.FieldError{
			Field: "entry",
			Err:   fmt.Errorf("%w: %v", runner.ErrBadField, derr),
		}
	}
	// The runner persists the outcome, exactly as for a local run.
	out.Cached = false
	it.committed = true
	it.entryHash = sha256.Sum256(entry)
	it.ckpt = nil
	t.endLeaseLocked(it)
	t.counts.LeaseCommitted.Add(1)
	t.counts.CommitOK.Add(1)
	t.finishLocked(it, out, nil)
	t.logf("committed %s from %s (fence %d)", short(digest), worker, fence)
	return &CommitReply{Schema: runner.WireSchema, Committed: true}, nil
}

// expireLeases revokes every lease whose TTL lapsed: the holder is
// presumed dead, the job requeues (front) to resume from its last shipped
// checkpoint, and the old fence can never commit again. It then picks a
// preemption victim when a sweep is starved.
func (t *leaseTable) expireLeases(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	for digest, it := range t.items {
		if it.state != workLeased || now.Before(it.expires) {
			continue
		}
		t.logf("lease on %s expired (worker %s, fence %d)", short(digest), it.worker, it.fence)
		t.endLeaseLocked(it)
		t.counts.LeaseExpired.Add(1)
		t.returnLocked(it)
	}
	if t.opts.Preempt {
		t.preemptLocked(now)
	}
}

// preemptLocked asks one lease to yield when a sweep is starved: its lane
// has pending work but holds no lease, and no worker is waiting to take
// it (mu held). The victim is a lease held at least PreemptSlice from the
// lane holding the most leases, and at most one yield is pending at a
// time, so time-slicing converges instead of thrashing. The holder
// checkpoints and releases, and the job requeues to resume later.
func (t *leaseTable) preemptLocked(now time.Time) {
	if t.waiting > 0 || len(t.queues) == 0 {
		return
	}
	held := make(map[string]int)
	for _, it := range t.items {
		if it.state != workLeased {
			continue
		}
		if it.yield {
			return
		}
		held[it.lane]++
	}
	starved := false
	for lane := range t.queues {
		starved = starved || held[lane] == 0
	}
	if !starved {
		return
	}
	var victim *workItem
	for _, it := range t.items {
		if it.state == workLeased && now.Sub(it.granted) >= t.opts.PreemptSlice &&
			(victim == nil || held[it.lane] > held[victim.lane]) {
			victim = it
		}
	}
	if victim != nil {
		victim.yield = true
		t.logf("asked %s on %s to yield (fence %d)", short(victim.digest), victim.worker, victim.fence)
	}
}

// scan is the expiry scanner goroutine.
func (t *leaseTable) scan() {
	defer t.wg.Done()
	ticker := time.NewTicker(scanTick)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case now := <-ticker.C:
			t.expireLeases(now)
		}
	}
}

// close stops the table: every unfinished item — pending or leased —
// finishes with machine.ErrInterrupted so blocked execute calls return,
// held lease calls return, and the lease levels drain to zero. Late
// worker calls get ErrLeaseExpired.
func (t *leaseTable) close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return
	}
	t.closed = true
	close(t.stop)
	close(t.wake)
	stopped := fmt.Errorf("service: lease table closed: %w", machine.ErrInterrupted)
	for _, it := range t.items {
		switch it.state {
		case workLeased:
			t.endLeaseLocked(it)
			t.counts.LeaseRevoked.Add(1)
			t.finishLocked(it, nil, stopped)
		case workPending:
			t.finishLocked(it, nil, stopped)
		}
	}
	t.workers = make(map[string]int)
	t.counts.FleetWorkers.Store(0)
	t.mu.Unlock()
	t.wg.Wait()
}

// finishLocked settles an item and wakes its execute call (mu held).
func (t *leaseTable) finishLocked(it *workItem, out *runner.Outcome, err error) {
	it.state = workDone
	it.out, it.err = out, err
	close(it.done)
}

// endLeaseLocked retires a lease's worker accounting and any pending
// yield (mu held). Its caller counts the lease's one end (expired,
// released, revoked or committed), from which dynamo_work_leases derives
// the leases held.
func (t *leaseTable) endLeaseLocked(it *workItem) {
	if n := t.workers[it.worker]; n > 1 {
		t.workers[it.worker] = n - 1
	} else {
		delete(t.workers, it.worker)
	}
	it.yield = false
	t.counts.FleetWorkers.Store(int64(len(t.workers)))
}

// returnLocked settles the item of a released or expired lease (mu
// held): a withdrawn item finishes interrupted; any other goes back to
// the front of its lane, so the next grant resumes from the shipped
// checkpoint before the sweep's fresh work starts.
func (t *leaseTable) returnLocked(it *workItem) {
	if it.withdrawn {
		t.finishLocked(it, nil, errWithdrawn)
	} else {
		t.queueLocked(it, true)
	}
}

// queueLocked puts an item (back) into its lane and wakes waiting lease
// calls (mu held). A released or expired item goes to the front. A
// never-granted one goes behind every such item and, among the
// never-granted, in admission order: the runner's goroutines reach
// execute in any order, so a lane is FIFO by admission only if queueing
// restores it.
func (t *leaseTable) queueLocked(it *workItem, front bool) {
	it.state = workPending
	it.worker = ""
	q := t.queues[it.lane]
	k := 0
	if !front {
		for k = len(q); k > 0; k-- {
			if prev := t.items[q[k-1]]; prev.attempt > 0 || prev.seq < it.seq {
				break
			}
		}
	}
	t.queues[it.lane] = slices.Insert(q, k, it.digest)
	close(t.wake)
	t.wake = make(chan struct{})
}

// unqueueLocked drops a pending item from its lane (mu held).
func (t *leaseTable) unqueueLocked(it *workItem) {
	q := t.queues[it.lane]
	for k, d := range q {
		if d == it.digest {
			q = append(q[:k], q[k+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(t.queues, it.lane)
	} else {
		t.queues[it.lane] = q
	}
}

// commitError rebuilds a worker-reported failure, preserving the error
// kinds the runner's transient-retry policy matches on: a panicked or
// stalled remote run retries (then quarantines) exactly like a local one.
func commitError(msg, kind string) error {
	switch kind {
	case "panicked":
		return fmt.Errorf("%w: %s", runner.ErrJobPanicked, msg)
	case "stalled":
		return fmt.Errorf("%w: %s", machine.ErrStalled, msg)
	}
	return errors.New(msg)
}

// errorKind renders a job failure's transient cause for the wire — the
// inverse of commitError.
func errorKind(err error) string {
	switch {
	case errors.Is(err, runner.ErrJobPanicked):
		return "panicked"
	case errors.Is(err, machine.ErrStalled):
		return "stalled"
	}
	return ""
}

func (t *leaseTable) logf(format string, args ...any) {
	if t.opts.Log == nil {
		return
	}
	fmt.Fprintf(t.opts.Log, "  "+format+"\n", args...)
}

// short abbreviates a digest for log lines.
func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
