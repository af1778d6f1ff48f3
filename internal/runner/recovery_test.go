package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynamo/internal/checkpoint"
	"dynamo/internal/machine"
	"dynamo/internal/workload"
)

// fastRetry keeps retry tests quick without weakening the schedule.
const fastRetry = time.Millisecond

func TestRetryRecoversTransientFailure(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	exec := func(q Request, _ ExecOptions) (*Outcome, error) {
		if calls.Add(1) <= 2 {
			panic("transient corruption")
		}
		return ExecuteLocal(q, ExecOptions{})
	}

	r := New(Options{Jobs: 1, CacheDir: dir, Retries: 3, RetryBackoff: fastRetry, Execute: exec})
	out, err := r.Run(quick())
	if err != nil || out == nil || out.Result == nil {
		t.Fatalf("retried job failed: %v", err)
	}
	st := r.Stats()
	if st.Retries != 2 || st.Errors != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// A recovered job leaves no quarantine marker.
	if _, err := os.Stat(filepath.Join(dir, quick().Digest()+".failed.json")); !os.IsNotExist(err) {
		t.Fatal("recovered job left a quarantine marker")
	}
}

func TestRetryExhaustionQuarantinesWithAttempts(t *testing.T) {
	dir := t.TempDir()
	exec := func(Request, ExecOptions) (*Outcome, error) {
		panic("persistent corruption")
	}

	r := New(Options{Jobs: 1, CacheDir: dir, Retries: 2, RetryBackoff: fastRetry, Execute: exec})
	if _, err := r.Run(quick()); !errors.Is(err, ErrJobPanicked) {
		t.Fatalf("err = %v, want ErrJobPanicked", err)
	}
	st := r.Stats()
	if st.Retries != 2 || st.Errors != 1 || st.Panics != 1 {
		t.Fatalf("stats = %+v", st)
	}
	data, err := os.ReadFile(filepath.Join(dir, quick().Digest()+".failed.json"))
	if err != nil {
		t.Fatalf("no quarantine marker: %v", err)
	}
	var e failedEntry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Attempts != 3 {
		t.Fatalf("marker records %d attempts, want 3 (1 run + 2 retries)", e.Attempts)
	}
}

func TestDeterministicFailureNotRetried(t *testing.T) {
	var calls atomic.Int64
	exec := func(Request, ExecOptions) (*Outcome, error) {
		calls.Add(1)
		return nil, machine.ErrTimeout
	}
	r := New(Options{Jobs: 1, Retries: 5, RetryBackoff: fastRetry, Execute: exec})
	if _, err := r.Run(quick()); !errors.Is(err, machine.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("deterministic failure executed %d times, want 1", n)
	}
	if st := r.Stats(); st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestQuarantineClaimIsExclusive is the regression test for the stale
// quarantine-marker race: when many workers observe the same stale
// <digest>.failed.json, exactly one may claim it (and inherit its attempt
// count); the others must see a clean slate, not a double-counted or torn
// marker.
func TestQuarantineClaimIsExclusive(t *testing.T) {
	dir := t.TempDir()
	s := newStore(dir, nil)
	q := quick()
	if err := s.quarantine(q, errors.New("old failure"), 5); err != nil {
		t.Fatal(err)
	}

	const workers = 16
	var wg sync.WaitGroup
	claims := make([]*failedEntry, workers)
	wins := make([]bool, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			claims[i], wins[i] = s.claimFailed(q.Digest())
		}(i)
	}
	wg.Wait()

	won := 0
	for i := range wins {
		if !wins[i] {
			continue
		}
		won++
		if claims[i] == nil || claims[i].Attempts != 5 {
			t.Errorf("winner %d inherited %+v, want the 5-attempt marker", i, claims[i])
		}
	}
	if won != 1 {
		t.Fatalf("%d workers claimed the marker, want exactly 1", won)
	}
	if _, err := os.Stat(s.failedPath(q.Digest())); !os.IsNotExist(err) {
		t.Fatal("claimed marker still on disk")
	}
}

// TestResumeFromCheckpoint checkpoints a half-finished job the way a
// crashed sweep would have, then asserts a Resume runner restores it and
// produces a byte-identical result to an uninterrupted run.
func TestResumeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	q := quick().normalize()
	digest := q.Digest()

	fresh, err := ExecuteLocal(q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := json.Marshal(fresh.Result)

	// Reproduce the job's machine exactly as execute builds it, pause at
	// the halfway event, and persist the checkpoint under the job digest.
	cfg := machine.DefaultConfig()
	cfg.Policy = q.Policy
	cfg.CkptIdentity = digest
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.Get(q.Workload)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := spec.Build(workload.Params{Threads: q.Threads, Seed: q.Seed, Scale: q.Scale})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Setup != nil {
		inst.Setup(m.Sys.Data)
	}
	k := fresh.Result.SimEvents / 2
	res, err := m.RunTo(inst.Programs, k)
	if err != nil || res != nil {
		t.Fatalf("RunTo = %v, %v; want a paused run", res, err)
	}
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := newStore(dir, nil)
	if err := s.saveCkpt(digest, ck); err != nil {
		t.Fatal(err)
	}

	r := New(Options{Jobs: 1, CacheDir: dir, Resume: true})
	out, err := r.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Resumed != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got, _ := json.Marshal(out.Result); !bytes.Equal(got, base) {
		t.Fatal("resumed result differs from the uninterrupted run")
	}
	// A completed job's checkpoint is cleaned up.
	if _, err := os.Stat(s.ckptPath(digest)); !os.IsNotExist(err) {
		t.Fatal("completed job left its checkpoint behind")
	}
}

func TestResumeEvictsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	q := quick()
	path := filepath.Join(dir, q.Digest()+".ckpt.json")
	if err := os.WriteFile(path, []byte("{ not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(Options{Jobs: 1, CacheDir: dir, Resume: true})
	out, err := r.Run(q)
	if err != nil || out == nil {
		t.Fatalf("run after corrupt checkpoint: %v", err)
	}
	st := r.Stats()
	if st.Resumed != 0 || st.Evictions != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt checkpoint not evicted")
	}
}

// TestResumeFallsBackWhenReplayDiverges simulates a checkpoint the
// current build can no longer reproduce: the job must discard it and
// restart from event zero, once, without counting a retry.
func TestResumeFallsBackWhenReplayDiverges(t *testing.T) {
	dir := t.TempDir()
	q := quick().normalize()
	digest := q.Digest()
	ck, err := checkpoint.New(digest, 100, checkpoint.State{})
	if err != nil {
		t.Fatal(err)
	}
	s := newStore(dir, nil)
	if err := s.saveCkpt(digest, ck); err != nil {
		t.Fatal(err)
	}

	var fresh atomic.Int64
	exec := func(q Request, x ExecOptions) (*Outcome, error) {
		if x.Resume != nil {
			return nil, fmt.Errorf("replay: %w", checkpoint.ErrDiverged)
		}
		fresh.Add(1)
		return ExecuteLocal(q, ExecOptions{})
	}

	r := New(Options{Jobs: 1, CacheDir: dir, Resume: true, Execute: exec})
	out, err := r.Run(q)
	if err != nil || out == nil {
		t.Fatalf("fallback run failed: %v", err)
	}
	if n := fresh.Load(); n != 1 {
		t.Fatalf("fresh fallback ran %d times, want 1", n)
	}
	st := r.Stats()
	if st.Resumed != 1 || st.Retries != 0 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := os.Stat(s.ckptPath(digest)); !os.IsNotExist(err) {
		t.Fatal("diverged checkpoint not discarded")
	}
}

// TestInterruptCancelsSweep asserts cancellation semantics: running jobs
// stop with machine.ErrInterrupted, queued jobs never start, and none of
// them are quarantined — they are resumable, not failed.
func TestInterruptCancelsSweep(t *testing.T) {
	dir := t.TempDir()
	interrupt := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	exec := func(_ Request, x ExecOptions) (*Outcome, error) {
		once.Do(func() { close(started) })
		<-x.Interrupt
		return nil, machine.ErrInterrupted
	}

	r := New(Options{Jobs: 1, CacheDir: dir, Interrupt: interrupt, Execute: exec})
	reqs := []Request{
		quick(),
		{Workload: "histogram", Policy: "all-near", Threads: 2, Scale: 0.05},
		{Workload: "spmv", Policy: "all-near", Threads: 2, Scale: 0.05},
	}
	var tasks []*Task
	for _, q := range reqs {
		tasks = append(tasks, r.Submit(q))
	}
	<-started
	close(interrupt)

	for _, task := range tasks {
		if _, err := task.Wait(); !errors.Is(err, machine.ErrInterrupted) {
			t.Fatalf("task err = %v, want ErrInterrupted", err)
		}
	}
	st := r.Stats()
	if st.Interrupted != 3 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if failures := r.Failed(); len(failures) != 0 {
		t.Fatalf("interrupted jobs listed as failed: %v", failures)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.failed.json"))
	if err != nil || len(entries) != 0 {
		t.Fatalf("interrupted jobs quarantined: %v %v", entries, err)
	}
}
