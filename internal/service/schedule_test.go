package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"dynamo/internal/runner"
)

// TestFleetCapacityNotCappedByJobs: execution concurrency is the number
// of worker slots, not Options.Jobs. Two one-slot fleet workers run two
// jobs at once against a service started with Jobs: 1.
func TestFleetCapacityNotCappedByJobs(t *testing.T) {
	_, srv, c := startService(t, Options{
		CacheDir: t.TempDir(), Jobs: 1, Workers: true, LeaseTTL: 10 * time.Second,
	})
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	exec := func(q runner.Request, x runner.ExecOptions) (*runner.Outcome, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-x.Interrupt:
		}
		return runner.ExecuteLocal(q, runner.ExecOptions{})
	}
	startWorker(t, srv, WorkerOptions{ID: "w1", Execute: exec})
	startWorker(t, srv, WorkerOptions{ID: "w2", Execute: exec})

	st, err := c.Submit(counterReq(501), counterReq(502))
	if err != nil {
		t.Fatal(err)
	}
	for running := 0; running < 2; running++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			close(release)
			t.Fatalf("only %d of 2 jobs ever ran at once on two free worker slots", running)
		}
	}
	close(release)
	if st, err = c.Wait(st.ID); err != nil || st.State != SweepDone {
		t.Fatalf("sweep = %+v, %v", st, err)
	}
}

// TestHeldLeaseGrantedPromptly: a lease call made on an empty queue is
// held, and a job submitted meanwhile is granted to it at once — not
// after an idle poll interval.
func TestHeldLeaseGrantedPromptly(t *testing.T) {
	_, _, c := startService(t, Options{CacheDir: t.TempDir(), Workers: true})
	type reply struct {
		g   *LeaseGrant
		err error
		at  time.Time
	}
	got := make(chan reply, 1)
	go func() {
		g, err := c.Lease(context.Background(), "w", time.Minute)
		got <- reply{g, err, time.Now()}
	}()
	time.Sleep(50 * time.Millisecond) // the call is now held server-side
	submitted := time.Now()
	if _, err := c.Submit(counterReq(511)); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil || r.g == nil {
		t.Fatalf("held lease = %+v, %v; want the submitted job", r.g, r.err)
	}
	if d := r.at.Sub(submitted); d > 100*time.Millisecond {
		t.Errorf("job granted %v after submission, want within ~50ms", d)
	}
}

// TestHeldLeaseReturnsOnDrainAndClose: a held lease call never outlives
// the worker or the service holding it open — worker Drain, Server.Close
// and Service.Close each end it at once rather than after the hold.
func TestHeldLeaseReturnsOnDrainAndClose(t *testing.T) {
	const prompt = leaseHold / 2
	svc, srv, c := startService(t, Options{CacheDir: t.TempDir(), Workers: true})

	w := startWorker(t, srv, WorkerOptions{ID: "idle"})
	time.Sleep(50 * time.Millisecond) // its slot now holds an empty lease
	start := time.Now()
	w.Drain()
	if d := time.Since(start); d > prompt {
		t.Errorf("worker Drain took %v with a held lease, want under %v", d, prompt)
	}

	held := func(lease func() error) chan error {
		done := make(chan error, 1)
		go func() { done <- lease() }()
		time.Sleep(50 * time.Millisecond)
		return done
	}
	wire := held(func() error { _, err := c.Lease(context.Background(), "w", 0); return err })
	start = time.Now()
	srv.Close()
	select {
	case <-wire:
	case <-time.After(prompt):
		t.Error("held HTTP lease outlived Server.Close")
	}
	if d := time.Since(start); d > prompt {
		t.Errorf("Server.Close took %v with a held lease, want under %v", d, prompt)
	}

	direct := held(func() error { _, err := svc.Lease(context.Background(), "w", 0); return err })
	svc.Close()
	select {
	case err := <-direct:
		if err == nil {
			t.Error("lease on a closed service succeeded")
		}
	case <-time.After(prompt):
		t.Error("held lease outlived Service.Close")
	}
}

// TestLeaseGrantsRoundRobinAcrossSweeps: two sweeps parked in the lease
// table are served alternately to one in-process worker slot, until the
// shorter one runs out.
func TestLeaseGrantsRoundRobinAcrossSweeps(t *testing.T) {
	svc, _, c := startService(t, Options{CacheDir: t.TempDir(), Workers: true})
	a, err := c.Submit(counterReq(521), counterReq(522), counterReq(523))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(counterReq(531), counterReq(532))
	if err != nil {
		t.Fatal(err)
	}
	sweepOf := map[string]string{}
	for _, j := range a.Jobs {
		sweepOf[j.Digest] = "A"
	}
	for _, j := range b.Jobs {
		sweepOf[j.Digest] = "B"
	}
	waitFor(t, "all five jobs to park", func() bool {
		svc.lt.mu.Lock()
		defer svc.lt.mu.Unlock()
		n := 0
		for _, q := range svc.lt.queues {
			n += len(q)
		}
		return n == 5
	})

	var mu sync.Mutex
	order := ""
	w := newWorker(WorkerOptions{
		ID: "solo", Heartbeat: localHeartbeat,
		Execute: func(q runner.Request, x runner.ExecOptions) (*runner.Outcome, error) {
			mu.Lock()
			order += sweepOf[q.Digest()]
			mu.Unlock()
			return runner.ExecuteLocal(q, x)
		},
	}, localWork{svc.lt}, (&Client{}).delay)
	w.Start()
	t.Cleanup(w.Drain)
	for _, id := range []string{a.ID, b.ID} {
		if st, err := c.Wait(id); err != nil || st.State != SweepDone {
			t.Fatalf("sweep %s = %+v, %v", id, st, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// Neither sweep has been served yet, so the tie goes to the older, A.
	if order != "ABABA" {
		t.Errorf("grant order by sweep = %q, want ABABA", order)
	}
}

// TestResubmitWhileCancelledJobWindsDown: a sweep submitted while a
// cancelled sweep's copy of the same job is still winding down runs the
// job afresh instead of inheriting the cancellation.
func TestResubmitWhileCancelledJobWindsDown(t *testing.T) {
	svc, _, c := startService(t, Options{CacheDir: t.TempDir(), Jobs: 1})
	a, err := c.Submit(slowReq(541))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the job to run", func() bool {
		st, err := svc.Status(a.ID)
		return err == nil && st.Running == 1
	})
	if _, err := c.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(slowReq(541))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(b.ID); err != nil || st.State != SweepDone {
		t.Fatalf("resubmitted sweep = %+v, %v", st, err)
	}
}
