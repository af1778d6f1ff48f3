package dynamo

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dynamo/internal/runner"
)

// TestRunnerOptionsSetFields: each RunnerOption sets its runner.Options
// field, and WithService maps each ServiceOption the same way. A Runner
// ignores the options only Serve honors.
func TestRunnerOptionsSetFields(t *testing.T) {
	var log bytes.Buffer
	intr := make(chan struct{})
	tel, err := NewSweepTelemetry("")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opt  RunnerOption
		want runner.Options
	}{
		{"WithJobs", WithJobs(3), runner.Options{Jobs: 3}},
		{"WithCacheDir", WithCacheDir("cache"), runner.Options{CacheDir: "cache"}},
		{"WithRunnerLog", WithRunnerLog(&log), runner.Options{Log: &log}},
		{"WithRetries", WithRetries(2), runner.Options{Retries: 2}},
		{"WithRunnerCheckpoints", WithRunnerCheckpoints(500), runner.Options{CkptEvery: 500}},
		{"WithRunnerInterrupt", WithRunnerInterrupt(intr), runner.Options{Interrupt: intr}},
		{"WithService addr", WithService("127.0.0.1:0"), runner.Options{ServeAddr: "127.0.0.1:0"}},
		{"ServiceTelemetry", WithService("", ServiceTelemetry(tel)), runner.Options{Telemetry: tel}},
		{"ServiceCacheDir", WithService("", ServiceCacheDir("cache")), runner.Options{CacheDir: "cache"}},
		{"ServiceJobs", WithService("", ServiceJobs(3)), runner.Options{Jobs: 3}},
		{"ServiceRetries", WithService("", ServiceRetries(2)), runner.Options{Retries: 2}},
		{"ServiceCheckpoints", WithService("", ServiceCheckpoints(500)), runner.Options{CkptEvery: 500}},
		{"ServiceLog", WithService("", ServiceLog(&log)), runner.Options{Log: &log}},
		{"ServiceResume", WithService("", ServiceResume()), runner.Options{}},
		{"ServiceMaxQueued", WithService("", ServiceMaxQueued(4)), runner.Options{}},
		{"ServicePreemption", WithService("", ServicePreemption()), runner.Options{}},
		{"ServiceWorkers", WithService("", ServiceWorkers(time.Second)), runner.Options{}},
	} {
		var got runnerConfig
		tc.opt(&got)
		if !reflect.DeepEqual(got, runnerConfig{Options: tc.want}) {
			t.Errorf("%s set %+v, want %+v", tc.name, got, tc.want)
		}
	}

	// ServiceJournal opens a journal-backed surface in place of a
	// supplied one, and hands it to the Runner to close.
	var got runnerConfig
	WithService("", ServiceJournal(filepath.Join(t.TempDir(), "journal.jsonl")))(&got)
	if got.Telemetry == nil || got.opened != got.Telemetry {
		t.Fatalf("ServiceJournal set telemetry %p and opened %p, want one surface", got.Telemetry, got.opened)
	}
	got.opened.Close()
}

// TestRunnerClosesTheJournalItsOptionsOpened: a Runner whose ServiceJournal
// option opened a journal journals its runs there and closes it on Close.
func TestRunnerClosesTheJournalItsOptionsOpened(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	r := NewRunner(WithJobs(1), WithService("", ServiceJournal(journal)))
	if _, err := r.Run(SweepRequest{Counter: &CounterSpec{Ops: 20, Cells: 1}, Threads: 2, Seed: 1}); err != nil {
		r.Close()
		t.Fatal(err)
	}
	if n := openFiles(t, journal); n != 1 {
		t.Errorf("journal open %d times while running, want 1", n)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if n := openFiles(t, journal); n != 0 {
		t.Errorf("journal still open %d times after Close", n)
	}
	if spans, err := ReadJobJournal(journal); err != nil || len(spans) != 1 {
		t.Errorf("journal holds %d spans (%v), want 1", len(spans), err)
	}
}

// TestRunnerInterruptedBeforeStart: a runner whose interrupt channel is
// already closed cancels every run before it simulates.
func TestRunnerInterruptedBeforeStart(t *testing.T) {
	intr := make(chan struct{})
	close(intr)
	r := NewRunner(WithJobs(1), WithRunnerInterrupt(intr))
	defer r.Close()
	if _, err := r.Run(SweepRequest{Workload: "tc", Threads: 2, Scale: 0.05}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Run err = %v, want ErrInterrupted", err)
	}
	if st := r.Stats(); st.Simulated() != 0 || st.Interrupted != 1 {
		t.Errorf("stats = %+v, want 1 interrupted and nothing simulated", st)
	}
}
