package runner

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynamo/internal/machine"
)

func TestPanickingJobDoesNotSinkTheSweep(t *testing.T) {
	dir := t.TempDir()
	bad := Request{Workload: "tc", Policy: "all-far", Threads: 2, Scale: 0.05}
	exec := func(q Request, _ ExecOptions) (*Outcome, error) {
		if q.Policy == "all-far" {
			panic("corrupt simulator state")
		}
		return ExecuteLocal(q, ExecOptions{})
	}

	r := New(Options{Jobs: 2, CacheDir: dir, Execute: exec})
	good1 := r.Submit(quick())
	failed := r.Submit(bad)
	good2 := r.Submit(Request{Workload: "histogram", Policy: "all-near", Threads: 2, Scale: 0.05})

	// The healthy jobs complete with results despite the casualty.
	for _, task := range []*Task{good1, good2} {
		out, err := task.Wait()
		if err != nil || out == nil || out.Result == nil {
			t.Fatalf("healthy job failed: %v", err)
		}
	}
	_, err := failed.Wait()
	if err == nil {
		t.Fatal("panicking job reported success")
	}
	if !errors.Is(err, ErrJobPanicked) {
		t.Fatalf("err = %v, want ErrJobPanicked", err)
	}
	var je *JobError
	if !errors.As(err, &je) || je.Request.Policy != "all-far" {
		t.Fatalf("err = %v, want a JobError carrying the request", err)
	}
	if !strings.Contains(err.Error(), "corrupt simulator state") {
		t.Fatalf("panic value lost: %v", err)
	}
	if !strings.Contains(err.Error(), "goroutine ") {
		t.Fatalf("panic stack lost: %v", err)
	}

	st := r.Stats()
	if st.Errors != 1 || st.Panics != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if failures := r.Failed(); len(failures) != 1 || failures[0].Request.Policy != "all-far" {
		t.Fatalf("Failed() = %v", failures)
	}

	// The failed run is quarantined, never cached.
	digest := bad.Digest()
	if _, err := os.Stat(filepath.Join(dir, digest+".json")); !os.IsNotExist(err) {
		t.Fatal("failed run entered the result cache")
	}
	marker, err := os.ReadFile(filepath.Join(dir, digest+".failed.json"))
	if err != nil {
		t.Fatalf("no quarantine marker: %v", err)
	}
	if !strings.Contains(string(marker), "corrupt simulator state") {
		t.Fatal("quarantine marker does not record the cause")
	}
}

func TestJobErrorExposesCause(t *testing.T) {
	r := New(Options{Jobs: 1, Execute: func(Request, ExecOptions) (*Outcome, error) {
		return nil, machine.ErrTimeout
	}})
	_, err := r.Run(quick())
	if !errors.Is(err, machine.ErrTimeout) {
		t.Fatalf("errors.Is(ErrTimeout) = false: %v", err)
	}
	var je *JobError
	if !errors.As(err, &je) || je.Request.Workload != "tc" {
		t.Fatalf("err = %v, want a JobError for the tc request", err)
	}
	if err := r.Wait(); !errors.Is(err, machine.ErrTimeout) {
		t.Fatalf("Wait() = %v, want the timeout surfaced", err)
	}
}

func TestQuarantineMarkerClearedOnSuccess(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("transient simulator bug")
	broken := func(Request, ExecOptions) (*Outcome, error) { return nil, boom }
	if _, err := New(Options{Jobs: 1, CacheDir: dir, Execute: broken}).Run(quick()); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	marker := filepath.Join(dir, quick().Digest()+".failed.json")
	if _, err := os.Stat(marker); err != nil {
		t.Fatalf("no quarantine marker: %v", err)
	}

	// After the bug is fixed, a successful run replaces the marker with a
	// real cache entry.
	out, err := New(Options{Jobs: 1, CacheDir: dir}).Run(quick())
	if err != nil || out.Cached {
		t.Fatalf("re-run: out=%+v err=%v", out, err)
	}
	if _, err := os.Stat(marker); !os.IsNotExist(err) {
		t.Fatal("stale quarantine marker survived a successful run")
	}
	if _, err := os.Stat(filepath.Join(dir, quick().Digest()+".json")); err != nil {
		t.Fatalf("no cache entry after successful re-run: %v", err)
	}
}

func TestCheckAndChaosDigests(t *testing.T) {
	plain := quick()
	checked := quick()
	checked.Check = true
	if plain.Digest() == checked.Digest() {
		t.Error("sanitized request shares the plain request's digest")
	}
	// Chaos normalization: a bare seed runs at level 1, a bare level runs
	// seed 1, and both spellings share a digest.
	bareSeed := quick()
	bareSeed.ChaosSeed = 1
	bareLevel := quick()
	bareLevel.ChaosLevel = 1
	if bareSeed.Digest() != bareLevel.Digest() {
		t.Error("equivalent chaos spellings have different digests")
	}
	if bareSeed.Digest() == plain.Digest() {
		t.Error("chaos request shares the plain request's digest")
	}
}

func TestCheckedAndChaosRequestsExecute(t *testing.T) {
	r := New(Options{Jobs: 2})
	req := quick()
	req.Check = true
	out, err := r.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Check == nil || !out.Result.Check.Clean {
		t.Fatalf("sanitized run has no clean report: %+v", out.Result.Check)
	}

	chaotic := quick()
	chaotic.Check = true
	chaotic.ChaosSeed = 7
	chaotic.ChaosLevel = 2
	out, err = r.Run(chaotic)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Check == nil || !out.Result.Check.Clean {
		t.Fatalf("chaotic run has no clean report: %+v", out.Result.Check)
	}
}
