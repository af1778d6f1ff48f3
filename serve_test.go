package dynamo

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestServeFacadeHardening drives the fault-hardening surface end to end
// through the public facade: a preemption-enabled, admission-bounded
// service, a remote runner with a wire deadline, and the typed
// backpressure and timeout sentinels.
func TestServeFacadeHardening(t *testing.T) {
	svc, err := Serve("127.0.0.1:0",
		ServiceCacheDir(t.TempDir()),
		ServiceJobs(2),
		ServiceCheckpoints(20000),
		ServicePreemption(),
		ServiceMaxQueued(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// A remote runner executes on the server; the generous deadline rides
	// along on the wire without expiring anything.
	r := NewRunner(WithJobs(2), WithRemote(svc.Addr(), RemoteDeadline(time.Minute), RemoteRetries(8)))
	defer r.Close()
	q := SweepRequest{Workload: "histogram", Policy: "all-near", Threads: 2, Scale: 0.05}
	out, err := r.Run(q)
	if err != nil || out == nil || out.SimEvents == 0 {
		t.Fatalf("remote run through facade: %v", err)
	}

	// The admission bound pushes back with the typed sentinel: three
	// distinct jobs in one batch cannot fit a queue of two.
	c := Dial(svc.Addr())
	c.Retries = 0
	_, err = c.Submit(
		SweepRequest{Workload: "tc", Policy: "all-near", Threads: 2, Scale: 0.05},
		SweepRequest{Workload: "tc", Policy: "shared-far", Threads: 2, Scale: 0.05},
		SweepRequest{Workload: "spmv", Policy: "all-near", Threads: 2, Scale: 0.05},
	)
	if !errors.Is(err, ErrServiceOverloaded) {
		t.Fatalf("oversized batch err = %v, want ErrServiceOverloaded", err)
	}

	// A deadline-bounded wait on a sweep that outlives it reports the
	// typed timeout.
	st, err := c.Submit(SweepRequest{Workload: "tc", Policy: "all-near", Threads: 2, Scale: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	w := Dial(svc.Addr())
	w.Deadline = 30 * time.Millisecond
	if _, err := w.Wait(st.ID); !errors.Is(err, ErrSweepWaitTimeout) {
		t.Fatalf("bounded wait err = %v, want ErrSweepWaitTimeout", err)
	}
}

// TestServeJournalsEverySpan: Serve with ServiceJournal journals one span
// per job, and SweepService.Close closes the journal it opened.
func TestServeJournalsEverySpan(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	svc, err := Serve("127.0.0.1:0", ServiceCacheDir(filepath.Join(dir, "cache")), ServiceJobs(1), ServiceJournal(journal))
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(svc.Addr())
	st, err := c.Submit(
		SweepRequest{Counter: &CounterSpec{Ops: 20, Cells: 1}, Threads: 2, Seed: 1},
		SweepRequest{Counter: &CounterSpec{Ops: 20, Cells: 1}, Threads: 2, Seed: 2},
	)
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	if st, err = c.Wait(st.ID); err != nil || st.Done != 2 {
		svc.Close()
		t.Fatalf("sweep = %+v, %v", st, err)
	}
	if n := openFiles(t, journal); n != 1 {
		t.Errorf("journal open %d times while serving, want 1", n)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if n := openFiles(t, journal); n != 0 {
		t.Errorf("journal still open %d times after Close", n)
	}
	spans, err := ReadJobJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].Digest == spans[1].Digest {
		t.Errorf("journal holds %d spans, want one per job: %+v", len(spans), spans)
	}
}

// openFiles counts this process's file descriptors open on path (Linux
// /proc; the test skips elsewhere).
func openFiles(t *testing.T, path string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open files: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == path {
			n++
		}
	}
	return n
}
