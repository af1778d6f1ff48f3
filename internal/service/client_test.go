package service

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynamo/internal/machine"
	"dynamo/internal/runner"
)

// TestClientBackoffSchedule pins Client.delay's contract: the base delay
// doubles per retry from Backoff, caps at MaxBackoff, and each draw lands
// in [base/2, base]. The jitter seam makes the schedule reproducible —
// the same seed yields the same delays.
func TestClientBackoffSchedule(t *testing.T) {
	c := Dial("127.0.0.1:1")
	c.Backoff = 100 * time.Millisecond
	c.MaxBackoff = 2 * time.Second
	c.jitter = rand.New(rand.NewSource(42)).Int63n

	bases := []time.Duration{
		100 * time.Millisecond, // attempt 0
		200 * time.Millisecond, // doubled
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second, // capped at MaxBackoff
		2 * time.Second, // and stays capped
	}
	var first []time.Duration
	for attempt, base := range bases {
		d := c.delay(attempt)
		if d < base/2 || d > base {
			t.Errorf("delay(%d) = %v, want within [%v, %v]", attempt, d, base/2, base)
		}
		first = append(first, d)
	}

	// Same seed, same schedule: the randomness is the seam's, not the
	// wall clock's.
	c.jitter = rand.New(rand.NewSource(42)).Int63n
	for attempt := range bases {
		if d := c.delay(attempt); d != first[attempt] {
			t.Errorf("reseeded delay(%d) = %v, want %v", attempt, d, first[attempt])
		}
	}

	// Zero-value clients fall back to the documented defaults.
	var z Client
	if d := z.delay(0); d < 50*time.Millisecond || d > 100*time.Millisecond {
		t.Errorf("zero-value delay(0) = %v, want within [50ms, 100ms]", d)
	}
	if d := z.delay(20); d < time.Second || d > 2*time.Second {
		t.Errorf("zero-value delay(20) = %v, want within [1s, 2s] (capped)", d)
	}
}

// TestExecuteContextCancellation: a caller that drives Execute from a
// context passes its Done channel as the interrupt. Cancelling the
// context aborts the remote wait promptly — mid-poll, not at the job's
// natural end — and an already-dead context never starts the call at all.
func TestExecuteContextCancellation(t *testing.T) {
	_, _, c := startService(t, Options{CacheDir: t.TempDir(), Jobs: 1})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Execute(longReq(), runner.ExecOptions{Interrupt: ctx.Done()}) // far longer than 30ms locally
	if err == nil {
		t.Fatal("cancelled Execute succeeded")
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Errorf("cancelled Execute returned after %v, want prompt", waited)
	}

	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := c.Execute(counterReq(441), runner.ExecOptions{Interrupt: dead.Done()}); err == nil {
		t.Fatal("pre-cancelled Execute succeeded")
	}
}

// TestExecuteInterruptible: the runner-facing seam reports an interrupt
// as an error wrapping machine.ErrInterrupted — what the runner's
// cancellation and preemption classification keys on — both when the
// interrupt fires mid-wait and when it was already closed. A nil
// interrupt runs the job to its end.
func TestExecuteInterruptible(t *testing.T) {
	_, _, c := startService(t, Options{CacheDir: t.TempDir(), Jobs: 1})

	interrupt := make(chan struct{})
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(interrupt)
	}()
	if _, err := c.Execute(longReq(), runner.ExecOptions{Interrupt: interrupt}); !errors.Is(err, machine.ErrInterrupted) {
		t.Errorf("interrupted execute err = %v, want ErrInterrupted", err)
	}

	closed := make(chan struct{})
	close(closed)
	if _, err := c.Execute(counterReq(442), runner.ExecOptions{Interrupt: closed}); !errors.Is(err, machine.ErrInterrupted) {
		t.Errorf("pre-interrupted execute err = %v, want ErrInterrupted", err)
	}

	out, err := c.Execute(counterReq(443), runner.ExecOptions{})
	if err != nil || out == nil || out.Result == nil {
		t.Errorf("nil-interrupt execute = %v, %v", out, err)
	}
}

// TestWaitContextCancelled: WaitContext stops polling as soon as its
// context dies, reporting the typed ErrWaitTimeout.
func TestWaitContextCancelled(t *testing.T) {
	_, _, c := startService(t, Options{CacheDir: t.TempDir(), Jobs: 1})
	st, err := c.Submit(longReq())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.WaitContext(ctx, st.ID); !errors.Is(err, ErrWaitTimeout) {
		t.Errorf("cancelled WaitContext err = %v, want ErrWaitTimeout", err)
	}
}

// TestExecuteRefusesAnotherRequestsEntry: a served result that answers
// another request — the job under another ConfigSchema, as a server built
// at another schema serves it, or another workload's entry — fails the job
// with an error naming both metas, and Execute does not resubmit: a
// resubmission would fetch the same answer. The server itself never
// serves an entry its digest does not name (see
// TestResultEvictsAnotherRequestsEntry), so a handler in front of it
// serves the foreign entries.
func TestExecuteRefusesAnotherRequestsEntry(t *testing.T) {
	svc, srv, c := startService(t, Options{CacheDir: t.TempDir(), Jobs: 1})
	q := counterReq(451)
	out, err := c.Execute(q, runner.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := c.ResultBytes(q.Digest())
	if err != nil {
		t.Fatal(err)
	}
	other, err := runner.EncodeEntry(runner.Request{Workload: "tc", Threads: 2, Scale: 0.05}, out, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	target, err := url.Parse("http://" + srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var served atomic.Pointer[[]byte]
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/"+q.Digest() {
			w.Header().Set("Content-Type", "application/json")
			w.Write(*served.Load())
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	defer front.Close()
	fc := Dial(front.URL)
	for _, bad := range []struct {
		name  string
		entry []byte
		// served and asked are a meta field as the served entry and the
		// request have it.
		served, asked string
	}{
		{"schema 2", withMeta(t, good, "schema", "2"), `"schema":"2"`, `"schema":"1"`},
		{"another workload", other, `"workload":"tc"`, `"counter-ops":"20"`},
	} {
		served.Store(&bad.entry)
		before := svc.r.Stats().Requests
		_, err := fc.Execute(q, runner.ExecOptions{})
		if !errors.Is(err, runner.ErrWrongEntry) {
			t.Fatalf("%s: execute err = %v, want ErrWrongEntry", bad.name, err)
		}
		if msg := err.Error(); !strings.Contains(msg, bad.served) || !strings.Contains(msg, bad.asked) {
			t.Errorf("%s: error %q does not name both metas (%s, %s)", bad.name, msg, bad.served, bad.asked)
		}
		if n := svc.r.Stats().Requests - before; n != 1 {
			t.Errorf("%s: Execute submitted %d times, want 1 (no resubmission)", bad.name, n)
		}
	}
}

// TestResultEvictsAnotherRequestsEntry: GET /v1/jobs/{digest} serves only
// an entry whose meta the digest names. A cache file that holds the job
// under another ConfigSchema, or another workload's entry, is evicted like
// a corrupt file: the server heals a finished job's file from its
// in-memory outcome and serves that, and answers a digest it has no
// outcome for with not found.
func TestResultEvictsAnotherRequestsEntry(t *testing.T) {
	dir := t.TempDir()
	svc, _, c := startService(t, Options{CacheDir: dir, Jobs: 1})
	q := counterReq(452)
	out, err := c.Execute(q, runner.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, q.Digest()+".json")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	other, err := runner.EncodeEntry(runner.Request{Workload: "tc", Threads: 2, Scale: 0.05}, out, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	unknown := counterReq(453).Digest()
	for _, bad := range []struct {
		name  string
		entry []byte
	}{
		{"schema 2", withMeta(t, good, "schema", "2")},
		{"another workload", other},
	} {
		if err := os.WriteFile(path, bad.entry, 0o644); err != nil {
			t.Fatal(err)
		}
		before := svc.r.Stats().Evictions
		data, err := c.ResultBytes(q.Digest())
		if err != nil {
			t.Fatalf("%s: %v", bad.name, err)
		}
		if !bytes.Equal(data, good) {
			t.Errorf("%s: served %s, want the job's own entry", bad.name, data)
		}
		if healed, err := os.ReadFile(path); err != nil || !bytes.Equal(healed, good) {
			t.Errorf("%s: cache file not healed to the job's entry (%v)", bad.name, err)
		}
		// No job of this runner has the unknown digest, so nothing heals it.
		unknownPath := filepath.Join(dir, unknown+".json")
		if err := os.WriteFile(unknownPath, bad.entry, 0o644); err != nil {
			t.Fatal(err)
		}
		if data, err := c.ResultBytes(unknown); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: a misnamed entry was served for a digest with no result: %v, %.60q", bad.name, err, data)
		}
		if _, err := os.Stat(unknownPath); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: misnamed entry not evicted: %v", bad.name, err)
		}
		if n := svc.r.Stats().Evictions - before; n != 2 {
			t.Errorf("%s: %d evictions, want 2", bad.name, n)
		}
	}
}
