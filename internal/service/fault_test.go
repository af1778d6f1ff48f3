package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"dynamo/internal/faultio"
	"dynamo/internal/runner"
	"dynamo/internal/telemetry"
)

// longReq is big enough (~277k simulated events) to cross several of the
// machine's interrupt-poll strides, so preemption and deadline interrupts
// land mid-run instead of after completion.
func longReq() runner.Request {
	return runner.Request{Workload: "tc", Policy: "all-near", Threads: 2, Scale: 1.0}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPreemptionTimeSlicesAcrossSweeps: with one worker slot and
// preemption on, a long job from sweep A yields its lease when sweep B
// arrives starved, B runs to completion, and A resumes from its shipped
// checkpoint to a result byte-identical to an uninterrupted local run.
func TestPreemptionTimeSlicesAcrossSweeps(t *testing.T) {
	cache := t.TempDir()
	svc, err := New(Options{
		CacheDir: cache, Jobs: 1, CkptEvery: 20000,
		Preempt: true, PreemptSlice: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	stA, err := svc.Submit([]runner.Request{longReq()})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "sweep A to start running", func() bool {
		st, err := svc.Status(stA.ID)
		return err == nil && st.Running == 1
	})
	stB, err := svc.Submit([]runner.Request{counterReq(91)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "starved sweep B to finish", func() bool {
		st, err := svc.Status(stB.ID)
		return err == nil && st.State == SweepDone
	})
	waitFor(t, "preempted sweep A to finish", func() bool {
		st, err := svc.Status(stA.ID)
		return err == nil && st.State == SweepDone
	})

	// The preempted-and-resumed job's result is byte-identical to an
	// uninterrupted run of the same request.
	local := runner.New(runner.Options{Jobs: 1, CacheDir: t.TempDir()})
	defer local.Close()
	out, err := local.Run(longReq())
	if err != nil {
		t.Fatal(err)
	}
	localJSON, _ := json.Marshal(out.Result)
	stA, _ = svc.Status(stA.ID)
	remote, err := svc.Result(stA.Jobs[0].Digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, remote), localJSON) {
		t.Fatal("preempted-and-resumed result differs from the uninterrupted run")
	}

	// Gauge balance: nothing queued or running once both sweeps are done.
	p := svc.Telemetry().Progress()
	if p.Queued != 0 || p.Running != 0 {
		t.Fatalf("gauges not drained: %d queued, %d running", p.Queued, p.Running)
	}
	// The yield, then the resume from its checkpoint, both happened.
	if p.Preempted < 1 || p.Resumed < 1 {
		t.Fatalf("telemetry preempted/resumed = %d/%d, want >= 1 each", p.Preempted, p.Resumed)
	}
	// The runner's stats and /progress read one counter block, so the
	// re-grant's resume shows in both.
	if got := svc.Runner().Stats().Resumed; got != p.Resumed {
		t.Fatalf("Runner().Stats().Resumed = %d, /progress resumed = %d", got, p.Resumed)
	}
}

// TestDeadlineExpiresSweep: a sweep past its wall-clock deadline turns
// terminal ("expired") — queued jobs expire in place, the in-flight one
// is interrupted at its next checkpoint boundary — and the gauges drain.
// The one worker slot holds its leased job until the deadline's yield
// reaches it and only then simulates, so the job is in flight at the
// deadline however the host schedules it; a job that finishes before the
// yield lands is committed, never thrown away.
func TestDeadlineExpiresSweep(t *testing.T) {
	tel := telemetry.NewSweep(telemetry.SweepOptions{})
	defer tel.Close()
	svc, err := New(Options{CacheDir: t.TempDir(), Jobs: 1, Workers: true, CkptEvery: 20000, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	w := newWorker(WorkerOptions{
		ID: "slot", Heartbeat: localHeartbeat,
		Execute: func(q runner.Request, x runner.ExecOptions) (*runner.Outcome, error) {
			<-x.Interrupt
			return runner.ExecuteLocal(q, x)
		},
	}, svc.lt, (&Client{}).delay)
	w.Start()
	defer w.Drain()

	if _, err := svc.SubmitDeadline([]runner.Request{counterReq(1)}, -time.Second); !errors.Is(err, runner.ErrBadField) {
		t.Fatalf("negative deadline err = %v, want ErrBadField", err)
	}

	st, err := svc.SubmitDeadline([]runner.Request{longReq(), {Workload: "spmv", Policy: "all-near", Threads: 2, Scale: 1.0}}, 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "sweep to expire", func() bool {
		cur, err := svc.Status(st.ID)
		return err == nil && cur.Terminal()
	})
	cur, err := svc.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cur.State != SweepExpired {
		t.Fatalf("state = %q, want %q", cur.State, SweepExpired)
	}
	svc.Wait() // the interrupted in-flight job winds down
	cur, _ = svc.Status(st.ID)
	if cur.Expired != 2 || cur.Queued != 0 || cur.Running != 0 {
		t.Fatalf("final status = %+v, want both jobs expired", cur)
	}
	waitFor(t, "gauges to drain", func() bool {
		p := tel.Progress()
		return p.Queued == 0 && p.Running == 0
	})
	if p := tel.Progress(); p.Expired != 2 {
		t.Fatalf("telemetry expired = %d, want 2", p.Expired)
	}
}

// TestOverloadBackpressure: the bounded admission queue rejects a batch
// that would overflow it with a typed ErrOverloaded — HTTP 429 on the
// wire — and a client with backoff enabled rides it out and lands the
// sweep once capacity frees up.
func TestOverloadBackpressure(t *testing.T) {
	tel := telemetry.NewSweep(telemetry.SweepOptions{})
	defer tel.Close()
	svc, srv, _ := startService(t, Options{
		CacheDir: t.TempDir(), Jobs: 1, MaxQueued: 2, Telemetry: tel,
	})

	// Occupy the pool: one long job pending.
	stA, err := svc.Submit([]runner.Request{longReq()})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "long job to start", func() bool {
		st, err := svc.Status(stA.ID)
		return err == nil && st.Running == 1
	})

	// Direct: 1 pending + 2 submitted > 2 → all-or-nothing rejection.
	if _, err := svc.Submit([]runner.Request{counterReq(1), counterReq(2)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow submit err = %v, want ErrOverloaded", err)
	}
	if p := tel.Progress(); p.Overloaded < 1 {
		t.Fatalf("telemetry overloaded = %d, want >= 1", p.Overloaded)
	}

	// Wire, no retries: the 429 maps back to the typed sentinel.
	c0 := Dial(srv.Addr())
	c0.Retries = 0
	if _, err := c0.Submit(counterReq(3), counterReq(4)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("wire overflow err = %v, want ErrOverloaded", err)
	}

	// Wire, with backoff: the long job finishes well inside the retry
	// budget (several seconds, room for a race-instrumented build),
	// capacity frees, and the same batch is admitted.
	c1 := Dial(srv.Addr())
	c1.Retries = 30
	c1.Backoff = 25 * time.Millisecond
	c1.MaxBackoff = 200 * time.Millisecond
	st, err := c1.Submit(counterReq(3), counterReq(4))
	if err != nil {
		t.Fatalf("backoff submit did not recover: %v", err)
	}
	if st, err = c1.Wait(st.ID); err != nil || st.State != SweepDone {
		t.Fatalf("recovered sweep = %+v, %v", st, err)
	}
}

// TestClientWaitTimeout: a Wait bounded by the client deadline returns
// the typed ErrWaitTimeout while the sweep keeps running server-side.
func TestClientWaitTimeout(t *testing.T) {
	svc, srv, c := startService(t, Options{CacheDir: t.TempDir(), Jobs: 1, CkptEvery: 20000})
	st, err := c.Submit(longReq())
	if err != nil {
		t.Fatal(err)
	}
	w := Dial(srv.Addr())
	w.Deadline = 40 * time.Millisecond
	if _, err := w.Wait(st.ID); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("bounded wait err = %v, want ErrWaitTimeout", err)
	}
	// Only the caller stopped watching: the sweep still completes.
	if st, err = c.Wait(st.ID); err != nil || st.State != SweepDone {
		t.Fatalf("sweep after abandoned wait = %+v, %v", st, err)
	}
	_ = svc
}

// TestExecuteHealsUnderFaults is the in-process soak: a service whose
// storage plane and HTTP transport both run behind the deterministic
// fault injector still serves every Execute correctly — torn writes and
// lost documents heal, dropped and duplicated responses retry — and the
// results stay byte-identical to clean local runs.
func TestExecuteHealsUnderFaults(t *testing.T) {
	inj := faultio.New(faultio.Level(1234, 3, 40))
	tel := telemetry.NewSweep(telemetry.SweepOptions{})
	defer tel.Close()
	inj.Register(tel.Registry())

	svc, err := New(Options{
		CacheDir: t.TempDir(), Jobs: 2, CkptEvery: 20000,
		Telemetry: tel, FS: inj.WrapFS(faultio.OS{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv, err := Serve("127.0.0.1:0", svc, inj.WrapHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := Dial(srv.Addr())
	c.Backoff = 5 * time.Millisecond
	c.Poll = 5 * time.Millisecond
	c.Retries = 10

	local := runner.New(runner.Options{Jobs: 2, CacheDir: t.TempDir()})
	defer local.Close()

	for seed := int64(0); seed < 8; seed++ {
		q := counterReq(seed)
		out, err := c.Execute(q, runner.ExecOptions{})
		if err != nil {
			t.Fatalf("Execute(seed %d) under faults: %v", seed, err)
		}
		want, err := local.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(out.Result)
		ref, _ := json.Marshal(want.Result)
		if !bytes.Equal(got, ref) {
			t.Fatalf("seed %d: faulted remote result differs from clean local run", seed)
		}
	}
	if inj.Injected() == 0 {
		t.Fatal("the injector never fired — the soak exercised nothing")
	}
	t.Logf("injected faults: %v", inj.Counts())
}
