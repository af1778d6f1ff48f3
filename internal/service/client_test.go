package service

import (
	"context"
	"errors"
	"math/rand"
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
