package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dynamo/internal/checkpoint"
	"dynamo/internal/faultio"
	"dynamo/internal/machine"
	"dynamo/internal/runner"
)

// startWorker runs a fleet worker against srv and registers its drain.
func startWorker(t *testing.T, srv *Server, o WorkerOptions) *Worker {
	t.Helper()
	o.Addr = srv.Addr()
	w := NewWorker(o)
	w.Start()
	t.Cleanup(w.Drain)
	return w
}

// TestFleetEndToEnd: a service without in-process slots and two real
// fleet workers completes a sweep; every result is byte-identical to a local
// run, every commit is accounted for, and the lease gauges drain to zero.
func TestFleetEndToEnd(t *testing.T) {
	_, srv, c := startService(t, Options{
		CacheDir: t.TempDir(), Jobs: 4, Workers: true, LeaseTTL: 2 * time.Second,
	})
	w1 := startWorker(t, srv, WorkerOptions{ID: "w1", Slots: 2})
	w2 := startWorker(t, srv, WorkerOptions{ID: "w2", Slots: 2})

	st, err := c.Submit(counterReq(401), counterReq(402), counterReq(403), counterReq(404))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != SweepDone || st.Done != 4 {
		t.Fatalf("fleet sweep = %+v", st)
	}

	local := runner.New(runner.Options{Jobs: 1})
	defer local.Close()
	for _, j := range st.Jobs {
		remote, err := c.ResultBytes(j.Digest)
		if err != nil {
			t.Fatal(err)
		}
		out, err := local.Run(j.Request)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(out.Result)
		if !bytes.Equal(resultJSON(t, remote), want) {
			t.Errorf("job %s: fleet result differs from local", j.Digest)
		}
	}

	// The sweep turns done when the server accepts the last commit — a
	// beat before the worker's HTTP call returns and its counter bumps.
	waitFor(t, "fleet commit accounting", func() bool {
		return w1.Stats().Committed+w2.Stats().Committed == 4
	})
	s1, s2 := w1.Stats(), w2.Stats()
	if s1.Abandoned+s2.Abandoned != 0 || s1.Failed+s2.Failed != 0 {
		t.Errorf("unexpected failures: w1 %+v, w2 %+v", s1, s2)
	}
	if held := scrapeMetric(t, srv.Addr(), "dynamo_work_leases", ""); held != "0" {
		t.Errorf("dynamo_work_leases = %q after sweep, want 0", held)
	}
	if fleet := scrapeMetric(t, srv.Addr(), "dynamo_work_workers", ""); fleet != "0" {
		t.Errorf("dynamo_work_workers = %q after sweep, want 0", fleet)
	}
}

// TestWorkerDrainHandsJobBack: SIGTERM semantics. Worker A holds a job
// mid-run; Drain interrupts it, ships the final checkpoint, and releases
// the lease. Worker B then resumes from that checkpoint and commits a
// result byte-identical to an uninterrupted local run.
func TestWorkerDrainHandsJobBack(t *testing.T) {
	req := slowReq(411)
	ck, localOut := captureCkpt(t, req, 5000)
	wantJSON, err := json.Marshal(localOut.Result)
	if err != nil {
		t.Fatal(err)
	}
	resume, err := checkpoint.Read(bytes.NewReader(ck))
	if err != nil {
		t.Fatal(err)
	}

	_, srv, c := startService(t, Options{
		CacheDir: t.TempDir(), Jobs: 1, Workers: true,
		LeaseTTL: 2 * time.Second, CkptEvery: 5000,
	})
	st, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// Worker A's execution seam parks mid-job (having "reached" a real
	// checkpoint) until interrupted — a long job caught by a drain.
	running := make(chan struct{})
	wA := startWorker(t, srv, WorkerOptions{
		ID: "wA", Heartbeat: 20 * time.Millisecond,
		Execute: func(q runner.Request, x runner.ExecOptions) (*runner.Outcome, error) {
			if x.Sink != nil {
				x.Sink(resume)
			}
			close(running)
			<-x.Interrupt
			return nil, fmt.Errorf("worker draining: %w", machine.ErrInterrupted)
		},
	})
	<-running
	wA.Drain()
	sA := wA.Stats()
	if sA.Released != 1 || sA.Abandoned != 0 {
		t.Fatalf("worker A after drain = %+v, want 1 released", sA)
	}

	// Worker B picks the job up with the shipped checkpoint and finishes.
	wB := startWorker(t, srv, WorkerOptions{ID: "wB"})
	if st, err = c.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != SweepDone || st.Done != 1 {
		t.Fatalf("sweep after handoff = %+v", st)
	}
	waitFor(t, "worker B commit accounting", func() bool {
		sB := wB.Stats()
		return sB.Resumed == 1 && sB.Committed == 1
	})
	remote, err := c.ResultBytes(st.Jobs[0].Digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, remote), wantJSON) {
		t.Error("handed-back result differs from an uninterrupted local run")
	}
}

// TestWorkerRestartsWhenGrantedCheckpointDiverges: the job's first grant
// carries the checkpoint persisted in the cache directory, but this build
// no longer reproduces it (a tampered state, re-digested so it still reads
// as valid). The worker resumes from it, the replay diverges, and the job
// restarts from event zero in the same lease: it ends done with a result
// byte-identical to a local run, and nothing is quarantined.
func TestWorkerRestartsWhenGrantedCheckpointDiverges(t *testing.T) {
	req := slowReq(441)
	raw, localOut := captureCkpt(t, req, 5000)
	wantJSON, err := json.Marshal(localOut.Result)
	if err != nil {
		t.Fatal(err)
	}
	var ck checkpoint.Checkpoint
	if err := json.Unmarshal(raw, &ck); err != nil {
		t.Fatal(err)
	}
	var state checkpoint.State
	if err := json.Unmarshal(ck.State, &state); err != nil {
		t.Fatal(err)
	}
	state.Engine.Now += 17
	redigested, err := checkpoint.New(ck.Identity, ck.Event, state)
	if err != nil {
		t.Fatal(err)
	}
	var tamperedBuf bytes.Buffer
	if err := checkpoint.Write(&tamperedBuf, redigested); err != nil {
		t.Fatal(err)
	}
	tampered := tamperedBuf.Bytes()
	cache := t.TempDir()
	digest := req.Digest()
	if err := os.WriteFile(filepath.Join(cache, digest+".ckpt.json"), tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	_, srv, c := startService(t, Options{
		CacheDir: cache, Jobs: 1, Workers: true, LeaseTTL: 2 * time.Second,
	})
	var fromCkpt, fromZero atomic.Int32
	w := startWorker(t, srv, WorkerOptions{
		ID: "w",
		Execute: func(q runner.Request, x runner.ExecOptions) (*runner.Outcome, error) {
			if x.Resume != nil {
				fromCkpt.Add(1)
			} else {
				fromZero.Add(1)
			}
			return runner.ExecuteLocal(q, x)
		},
	})
	st, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != SweepDone || st.Done != 1 {
		t.Fatalf("sweep = %+v", st)
	}
	waitFor(t, "worker commit accounting", func() bool { return w.Stats().Committed == 1 })
	if s := w.Stats(); s.Leases != 1 || s.Resumed != 1 || s.Failed != 0 {
		t.Errorf("worker stats = %+v, want 1 lease, 1 resumed, 0 failed", s)
	}
	if r, z := fromCkpt.Load(), fromZero.Load(); r != 1 || z != 1 {
		t.Errorf("executions: %d from the checkpoint, %d from event zero; want 1 and 1", r, z)
	}
	remote, err := c.ResultBytes(digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, remote), wantJSON) {
		t.Error("restarted result differs from an uninterrupted local run")
	}
	if _, err := os.Stat(filepath.Join(cache, digest+".failed.json")); !os.IsNotExist(err) {
		t.Errorf("quarantine marker present after restart (stat err %v)", err)
	}
}

// TestWorkerRidesOutTransportFaults: with the deterministic fault
// injector dropping and duplicating the worker's HTTP calls, the sweep
// still completes exactly — retries plus idempotent commits absorb the
// loss, and any response lost after a commit landed is absorbed as a
// byte-identical duplicate rather than a violation.
func TestWorkerRidesOutTransportFaults(t *testing.T) {
	_, srv, c := startService(t, Options{
		CacheDir: t.TempDir(), Jobs: 2, Workers: true, LeaseTTL: 2 * time.Second,
	})
	// A client tuned to retry fast and often, over the faulty transport.
	fc := Dial(srv.Addr())
	fc.HTTP = &http.Client{Transport: faultio.New(faultio.Level(7, 3, -1)).WrapTransport(nil)}
	fc.Retries, fc.Backoff, fc.MaxBackoff = 10, 2*time.Millisecond, 20*time.Millisecond
	w := newWorker(WorkerOptions{ID: "flaky", Slots: 2}, fc, fc.delay)
	w.Start()
	t.Cleanup(w.Drain)

	st, err := c.Submit(counterReq(421), counterReq(422), counterReq(423))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != SweepDone || st.Done != 3 {
		t.Fatalf("sweep under faults = %+v", st)
	}

	local := runner.New(runner.Options{Jobs: 1})
	defer local.Close()
	for _, j := range st.Jobs {
		remote, err := c.ResultBytes(j.Digest)
		if err != nil {
			t.Fatal(err)
		}
		out, err := local.Run(j.Request)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(out.Result)
		if !bytes.Equal(resultJSON(t, remote), want) {
			t.Errorf("job %s: result under faults differs from local", j.Digest)
		}
	}
	waitFor(t, "flaky-worker commit accounting", func() bool {
		return w.Stats().Committed >= 3
	})
}

// TestWorkerPanicReportsTransient: a panicking job does not kill the
// slot — it commits as a transient "panicked" failure, the server's
// retry policy re-grants it, and the retry (panic-free) completes.
func TestWorkerPanicReportsTransient(t *testing.T) {
	_, srv, c := startService(t, Options{
		CacheDir: t.TempDir(), Jobs: 1, Retries: 2, Workers: true, LeaseTTL: 2 * time.Second,
	})
	var calls int
	w := startWorker(t, srv, WorkerOptions{
		ID: "shaky",
		Execute: func(q runner.Request, x runner.ExecOptions) (*runner.Outcome, error) {
			calls++
			if calls == 1 {
				panic("simulated corruption")
			}
			return runner.ExecuteLocal(q, x)
		},
	})

	st, err := c.Submit(counterReq(431))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != SweepDone || st.Done != 1 {
		t.Fatalf("sweep after panic retry = %+v", st)
	}
	waitFor(t, "shaky-worker commit accounting", func() bool {
		s := w.Stats()
		return s.Failed == 1 && s.Committed == 1
	})
}

// gateAPI grants one job, then holds lease calls until the worker
// drains; it counts heartbeats and acknowledges everything.
type gateAPI struct {
	grant     *LeaseGrant
	granted   atomic.Bool
	beats     atomic.Int32
	committed chan struct{}
}

func (f *gateAPI) Lease(ctx context.Context, _ string, _ time.Duration) (*LeaseGrant, error) {
	if f.granted.CompareAndSwap(false, true) {
		return f.grant, nil
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

func (f *gateAPI) Heartbeat(context.Context, string, string, uint64, []byte, bool) (*HeartbeatReply, error) {
	f.beats.Add(1)
	return &HeartbeatReply{Schema: runner.WireSchema}, nil
}

func (f *gateAPI) Commit(context.Context, string, string, uint64, []byte, string, string) (*CommitReply, error) {
	close(f.committed)
	return &CommitReply{Schema: runner.WireSchema, Committed: true}, nil
}

// runGated executes one leased job with a checkpoint boundary every 500
// events, each stretched by pace, under heartbeats every hb. It returns
// the boundaries the run reached, the checkpoints it captured and the
// heartbeats sent.
func runGated(t *testing.T, pace, hb time.Duration) (boundaries, captures, beats int32) {
	t.Helper()
	req := slowReq(451)
	api := &gateAPI{committed: make(chan struct{}), grant: &LeaseGrant{
		Schema: runner.WireSchema, Digest: req.Digest(), Request: req, Fence: 1, Attempt: 1,
		ExpiresUnixNano: time.Now().Add(time.Hour).UnixNano(), CkptEvery: 500,
	}}
	var nb, nc atomic.Int32
	w := newWorker(WorkerOptions{ID: "gated", Heartbeat: hb,
		Execute: func(q runner.Request, x runner.ExecOptions) (*runner.Outcome, error) {
			due, sink := x.CkptDue, x.Sink
			if due == nil {
				t.Error("a leased job with a checkpoint cadence got no capture gate")
				return runner.ExecuteLocal(q, x)
			}
			x.CkptDue = func() bool {
				nb.Add(1)
				time.Sleep(pace)
				return due()
			}
			x.Sink = func(ck *checkpoint.Checkpoint) {
				nc.Add(1)
				sink(ck)
			}
			return runner.ExecuteLocal(q, x)
		},
	}, api, func(int) time.Duration { return time.Millisecond })
	w.Start()
	defer w.Drain()
	select {
	case <-api.committed:
	case <-time.After(time.Minute):
		t.Fatal("the gated job never committed")
	}
	return nb.Load(), nc.Load(), api.beats.Load()
}

// TestWorkerCapturesOnlyWhatHeartbeatsShip: a fleet job captures a
// periodic checkpoint only at the first boundary after a heartbeat, so
// over many boundaries and several heartbeats it captures at most one a
// heartbeat (plus one), and a job shorter than one heartbeat none.
func TestWorkerCapturesOnlyWhatHeartbeatsShip(t *testing.T) {
	boundaries, captures, beats := runGated(t, 2*time.Millisecond, 10*time.Millisecond)
	if boundaries < 20 || beats < 3 {
		t.Fatalf("the job reached %d boundaries under %d heartbeats; the test needs many of both", boundaries, beats)
	}
	t.Logf("%d captures over %d boundaries and %d heartbeats", captures, boundaries, beats)
	if captures == 0 || captures > beats+1 {
		t.Errorf("%d captures over %d boundaries and %d heartbeats, want 1..%d", captures, boundaries, beats, beats+1)
	}
	boundaries, captures, beats = runGated(t, 0, time.Hour)
	if boundaries == 0 || beats != 0 || captures != 0 {
		t.Errorf("a job shorter than one heartbeat: %d captures over %d boundaries and %d heartbeats, want none",
			captures, boundaries, beats)
	}
}
