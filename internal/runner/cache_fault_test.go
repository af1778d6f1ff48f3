package runner

import (
	"errors"
	"syscall"
	"testing"

	"dynamo/internal/faultio"
)

// TestStoreEvictsTornWrite is the crash-durability regression test for
// the persistent cache: a torn write (a crash between the data landing
// and the rename completing, here injected deterministically) must not
// poison the store — the truncated document is detected on load, evicted,
// and the job re-simulates.
func TestStoreEvictsTornWrite(t *testing.T) {
	dir := t.TempDir()
	q := quick().normalize()
	out, err := ExecuteLocal(q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	inj := faultio.New(faultio.Options{Seed: 7, TornPermille: 1000, Budget: 1})
	torn := newStore(dir, inj.WrapFS(faultio.OS{}))
	if err := torn.save(q, out, 0); err != nil {
		t.Fatalf("torn save reported an error (the tear is silent by design): %v", err)
	}
	if inj.Injected() != 1 {
		t.Fatalf("injector fired %d faults, want 1", inj.Injected())
	}

	// A clean store over the same directory must detect and evict it.
	s := newStore(dir, nil)
	if _, _, err := s.load(q); !errors.Is(err, errEvicted) {
		t.Fatalf("load of torn entry = %v, want errEvicted", err)
	}

	// And the runner recovers end to end: eviction counted, job re-run.
	r := New(Options{Jobs: 1, CacheDir: dir})
	got, err := r.Run(q)
	if err != nil || got == nil || got.Cached {
		t.Fatalf("run over torn cache: out=%+v err=%v", got, err)
	}
	st := r.Stats()
	if st.Misses != 1 {
		t.Fatalf("stats = %+v, want a fresh miss", st)
	}
}

// TestRunnerSurvivesENOSPC: an injected out-of-space failure on the cache
// write degrades the cache, never the sweep — the job still returns its
// result, and the error is the typed syscall.ENOSPC for callers that
// probe it.
func TestRunnerSurvivesENOSPC(t *testing.T) {
	dir := t.TempDir()
	q := quick().normalize()
	out, err := ExecuteLocal(q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	inj := faultio.New(faultio.Options{Seed: 11, ENOSPCPermille: 1000, Budget: 1})
	fs := inj.WrapFS(faultio.OS{})
	s := newStore(dir, fs)
	if err := s.save(q, out, 0); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("save under ENOSPC = %v, want a typed syscall.ENOSPC", err)
	}

	// Fresh injector with budget 1: the one fault hits the result write,
	// and the run itself still succeeds.
	inj = faultio.New(faultio.Options{Seed: 11, ENOSPCPermille: 1000, Budget: 1})
	r := New(Options{Jobs: 1, CacheDir: dir, FS: inj.WrapFS(faultio.OS{})})
	got, err := r.Run(q)
	if err != nil || got == nil || got.Result == nil {
		t.Fatalf("run under ENOSPC failed: %v", err)
	}
}

// TestStoreEvictsCorruptRead: a read that returns mangled bytes (bit rot,
// injected here) evicts the entry instead of serving garbage.
func TestStoreEvictsCorruptRead(t *testing.T) {
	dir := t.TempDir()
	q := quick().normalize()
	out, err := ExecuteLocal(q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := newStore(dir, nil).save(q, out, 0); err != nil {
		t.Fatal(err)
	}

	inj := faultio.New(faultio.Options{Seed: 3, CorruptPermille: 1000, Budget: 1})
	s := newStore(dir, inj.WrapFS(faultio.OS{}))
	if _, _, err := s.load(q); !errors.Is(err, errEvicted) {
		t.Fatalf("load of corrupt-read entry = %v, want errEvicted", err)
	}
}
