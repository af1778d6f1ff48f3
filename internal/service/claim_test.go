package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynamo/internal/machine"
	"dynamo/internal/runner"
)

// beatWatch counts the heartbeats a worker sends and the yields their
// replies carry.
type beatWatch struct {
	workAPI
	beats, yields atomic.Int32
}

func (b *beatWatch) Heartbeat(ctx context.Context, digest, worker string, fence uint64, ckpt []byte, release bool) (*HeartbeatReply, error) {
	hb, err := b.workAPI.Heartbeat(ctx, digest, worker, fence, ckpt, release)
	if err == nil && !release {
		b.beats.Add(1)
		if hb.Yield {
			b.yields.Add(1)
		}
	}
	return hb, err
}

// fleetOf starts a service with no slots of its own and one single-slot
// worker that executes through exec and heartbeats every 10 ms.
func fleetOf(t *testing.T, o Options, exec func(runner.Request, runner.ExecOptions) (*runner.Outcome, error)) (*Service, *beatWatch) {
	t.Helper()
	o.CacheDir, o.Jobs, o.Workers = t.TempDir(), 1, true
	svc, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	watch := &beatWatch{workAPI: svc.lt}
	w := newWorker(WorkerOptions{ID: "fleet", Heartbeat: 10 * time.Millisecond, Execute: exec},
		watch, (&Client{}).delay)
	w.Start()
	t.Cleanup(w.Drain)
	return svc, watch
}

// holdUntil returns an executor that reports each job it starts on
// started and holds it until release closes (then runs it) or its run is
// interrupted.
func holdUntil(started chan<- runner.Request, release <-chan struct{}) func(runner.Request, runner.ExecOptions) (*runner.Outcome, error) {
	return func(q runner.Request, x runner.ExecOptions) (*runner.Outcome, error) {
		started <- q
		select {
		case <-release:
			return runner.ExecuteLocal(q, runner.ExecOptions{})
		case <-x.Interrupt:
			return nil, fmt.Errorf("held job: %w", machine.ErrInterrupted)
		}
	}
}

func waitStarted(t *testing.T, started <-chan runner.Request) runner.Request {
	t.Helper()
	select {
	case q := <-started:
		return q
	case <-time.After(10 * time.Second):
		t.Fatal("the worker never started the job")
		return runner.Request{}
	}
}

func submit(t *testing.T, svc *Service, reqs ...runner.Request) string {
	t.Helper()
	st, err := svc.Submit(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// expectState checks a sweep's final state.
func expectState(t *testing.T, svc *Service, id, want string) {
	t.Helper()
	if st := mustStatus(t, svc, id); st.State != want {
		t.Errorf("sweep %s = %+v, want %s", id, st, want)
	}
}

// expectNoClaims checks that no sweep still claims a digest.
func expectNoClaims(t *testing.T, svc *Service) {
	t.Helper()
	svc.lt.mu.Lock()
	defer svc.lt.mu.Unlock()
	for digest, c := range svc.lt.claims {
		t.Errorf("%s still claimed by %v", short(digest), c.sweeps)
	}
}

// TestSharedJobOutlivesOneCancel: two live sweeps want one job a worker
// holds. Cancelling one of them asks nothing of the holder, and the job
// runs on, under its one lease, to complete the other sweep.
func TestSharedJobOutlivesOneCancel(t *testing.T) {
	started, release := make(chan runner.Request, 1), make(chan struct{})
	svc, watch := fleetOf(t, Options{}, holdUntil(started, release))
	a := submit(t, svc, counterReq(701))
	waitStarted(t, started)
	b := submit(t, svc, counterReq(701))
	if _, err := svc.Cancel(a); err != nil {
		t.Fatal(err)
	}
	from := watch.beats.Load()
	waitFor(t, "several heartbeats", func() bool { return watch.beats.Load() >= from+5 || watch.yields.Load() > 0 })
	if n := watch.yields.Load(); n != 0 {
		t.Fatalf("the holder was told to yield %d times while sweep %s still wants the job", n, b)
	}
	close(release)
	svc.Wait()
	expectState(t, svc, a, SweepCancelled)
	expectState(t, svc, b, SweepDone)
	if n := svc.Telemetry().Counts().LeaseGranted.Load(); n != 1 {
		t.Errorf("%d leases granted, want 1", n)
	}
	expectNoClaims(t, svc)
}

// TestSharedJobYieldsOnLastCancel: once every sweep that wants a held
// job is cancelled, its holder is told to yield, and both sweeps end
// cancelled.
func TestSharedJobYieldsOnLastCancel(t *testing.T) {
	started := make(chan runner.Request, 1)
	svc, watch := fleetOf(t, Options{}, holdUntil(started, nil))
	a := submit(t, svc, counterReq(702))
	waitStarted(t, started)
	b := submit(t, svc, counterReq(702))
	for _, id := range []string{a, b} {
		if _, err := svc.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the holder to be told to yield", func() bool { return watch.yields.Load() > 0 })
	svc.Wait()
	for _, id := range []string{a, b} {
		expectState(t, svc, id, SweepCancelled)
		if st := mustStatus(t, svc, id); st.Cancelled != 1 {
			t.Errorf("sweep %s = %+v, want its job cancelled", id, st)
		}
	}
	if n := svc.Telemetry().Counts().LeaseGranted.Load(); n != 1 {
		t.Errorf("%d leases granted, want 1", n)
	}
	expectNoClaims(t, svc)
}

// TestClaimsDrain: after sweeps that finish, fail, are cancelled or
// expire, over shared and distinct digests, no digest is still claimed.
func TestClaimsDrain(t *testing.T) {
	done, failing, held, late := counterReq(711), counterReq(712), counterReq(713), counterReq(714)
	started := make(chan runner.Request, 8)
	hold := holdUntil(started, nil)
	svc, _ := fleetOf(t, Options{}, func(q runner.Request, x runner.ExecOptions) (*runner.Outcome, error) {
		switch q.Digest() {
		case failing.Digest():
			return nil, errors.New("boom")
		case held.Digest():
			return hold(q, x)
		}
		return runner.ExecuteLocal(q, x)
	})
	finished := submit(t, svc, done)
	failed := submit(t, svc, done, failing)
	svc.Wait()
	cancelled := submit(t, svc, held, done)
	alsoCancelled := submit(t, svc, held)
	waitStarted(t, started)
	// The one worker slot is busy, so this sweep expires while pending.
	st, err := svc.SubmitDeadline([]runner.Request{late}, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the sweep to expire", func() bool { return mustStatus(t, svc, st.ID).Terminal() })
	for _, id := range []string{cancelled, alsoCancelled} {
		if _, err := svc.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	svc.Wait()
	expectState(t, svc, finished, SweepDone)
	expectState(t, svc, failed, SweepFailed)
	expectState(t, svc, cancelled, SweepCancelled)
	expectState(t, svc, alsoCancelled, SweepCancelled)
	expectState(t, svc, st.ID, SweepExpired)
	expectNoClaims(t, svc)
}

// logWatch closes hit the first time a log line contains want.
type logWatch struct {
	want string
	hit  chan struct{}
	once sync.Once
}

func (l *logWatch) Write(p []byte) (int, error) {
	if strings.Contains(string(p), l.want) {
		l.once.Do(func() { close(l.hit) })
	}
	return len(p), nil
}

// TestCancelDuringRetryBackoffGrantsNoLease: a sweep cancelled while its
// job waits out a retry backoff ends cancelled; the job is refused when
// the backoff ends, so it is granted no further lease and nothing is
// committed.
func TestCancelDuringRetryBackoffGrantsNoLease(t *testing.T) {
	backoff := &logWatch{want: "retrying", hit: make(chan struct{})}
	var calls atomic.Int32
	svc, _ := fleetOf(t, Options{Retries: 1, Log: backoff}, func(q runner.Request, x runner.ExecOptions) (*runner.Outcome, error) {
		if calls.Add(1) == 1 {
			panic("simulated corruption")
		}
		return runner.ExecuteLocal(q, x)
	})
	req := counterReq(721)
	id := submit(t, svc, req)
	select {
	case <-backoff.hit:
	case <-time.After(10 * time.Second):
		t.Fatal("the job never backed off")
	}
	if _, err := svc.Cancel(id); err != nil {
		t.Fatal(err)
	}
	// The runner sleeps the backoff out, then the lease table refuses the
	// job no sweep wants.
	if err := svc.Runner().Wait(); !errors.Is(err, machine.ErrInterrupted) {
		t.Fatalf("job err = %v, want ErrInterrupted", err)
	}
	expectState(t, svc, id, SweepCancelled)
	c := svc.Telemetry().Counts()
	if granted, ok := c.LeaseGranted.Load(), c.CommitOK.Load(); granted != 1 || ok != 0 || calls.Load() != 1 {
		t.Errorf("%d leases granted, %d commits, %d executions; want 1, 0, 1", granted, ok, calls.Load())
	}
	if _, err := svc.Result(req.Digest()); !errors.Is(err, ErrNotFound) {
		t.Errorf("result of the cancelled job: %v, want ErrNotFound", err)
	}
	if st := svc.Runner().Stats(); st.Retries != 1 || st.Interrupted != 1 {
		t.Errorf("runner stats = %+v, want 1 retry and 1 interrupted", st)
	}
	expectNoClaims(t, svc)
}
