package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"dynamo/internal/telemetry"
)

// TestTelemetryMirrorsStats runs a mixed sweep — a memory hit, a disk
// hit, simulated successes and a retried-then-quarantined panic — and
// checks the telemetry surface agrees with the runner's own Stats and
// that every job left a structured span.
func TestTelemetryMirrorsStats(t *testing.T) {
	dir := t.TempDir()

	// Warm the persistent store so the second runner sees a disk hit.
	warm := New(Options{Jobs: 1, CacheDir: dir})
	if _, err := warm.Run(quick()); err != nil {
		t.Fatal(err)
	}

	calls := 0
	exec := func(q Request, _ ExecOptions) (*Outcome, error) {
		if q.Policy == "all-far" {
			calls++
			panic("injected")
		}
		return ExecuteLocal(q, ExecOptions{})
	}

	var journal bytes.Buffer
	tel := telemetry.NewSweep(telemetry.SweepOptions{Journal: nopCloser{&journal}})
	r := New(Options{Jobs: 2, CacheDir: dir, Retries: 1, RetryBackoff: time.Millisecond, Telemetry: tel, Execute: exec})

	r.Submit(quick()) // disk hit
	r.Submit(quick()) // memory hit
	bad := Request{Workload: "tc", Policy: "all-far", Threads: 2, Scale: 0.05}
	r.Submit(bad) // panics, one retry, quarantined
	miss := Request{Workload: "histogram", Policy: "all-near", Threads: 2, Scale: 0.05}
	r.Submit(miss) // simulates
	if err := r.Wait(); err == nil {
		t.Fatal("sweep with an injected panic reported no error")
	}
	if calls != 2 {
		t.Fatalf("failing job executed %d times, want 2 (one retry)", calls)
	}

	st := r.Stats()
	p := tel.Progress()
	if p.TotalJobs != st.Submitted || p.TotalJobs != 3 {
		t.Errorf("telemetry total = %d, stats submitted = %d", p.TotalJobs, st.Submitted)
	}
	if p.MemoryHits != st.Hits || p.DiskHits != st.DiskHits || p.Misses != st.Misses {
		t.Errorf("telemetry cache %d/%d/%d, stats %d/%d/%d",
			p.MemoryHits, p.DiskHits, p.Misses, st.Hits, st.DiskHits, st.Misses)
	}
	if p.DoneJobs != st.DiskHits+st.Misses || p.FailedJobs != st.Errors {
		t.Errorf("telemetry done/failed = %d/%d, stats = %d/%d",
			p.DoneJobs, p.FailedJobs, st.DiskHits+st.Misses, st.Errors)
	}
	if p.Retries != st.Retries || p.Panics != st.Panics || p.SimEvents != st.SimEvents {
		t.Errorf("telemetry retries/panics/events = %d/%d/%d, stats = %d/%d/%d",
			p.Retries, p.Panics, p.SimEvents, st.Retries, st.Panics, st.SimEvents)
	}
	if p.Queued != 0 || p.Running != 0 {
		t.Errorf("gauges not drained: %d queued, %d running", p.Queued, p.Running)
	}

	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ReadJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if len(spans) != 3 {
		t.Fatalf("journal has %d spans, want 3", len(spans))
	}
	byOutcome := map[telemetry.Outcome]telemetry.JobSpan{}
	for _, s := range spans {
		byOutcome[s.Outcome] = s
	}
	if s, ok := byOutcome[telemetry.OutcomeCached]; !ok || !s.CacheHit {
		t.Errorf("no cached span in journal: %+v", spans)
	}
	if s, ok := byOutcome[telemetry.OutcomeOK]; !ok || s.SimEvents == 0 || len(s.Attempts) != 1 {
		t.Errorf("ok span = %+v", s)
	}
	s, ok := byOutcome[telemetry.OutcomeFailed]
	if !ok || len(s.Attempts) != 2 {
		t.Fatalf("failed span = %+v (want 2 attempts)", s)
	}
	if !strings.Contains(s.Error, "injected") || !strings.Contains(s.Attempts[0].Error, "injected") {
		t.Errorf("failed span lost its error: %+v", s)
	}
	if s.Request != bad.String() {
		t.Errorf("failed span request = %q, want %q", s.Request, bad.String())
	}

	// The journal round-trips through the Perfetto exporter.
	var trace bytes.Buffer
	if err := telemetry.ExportTraceEvents(bytes.NewReader(journal.Bytes()), &trace); err != nil {
		t.Fatalf("ExportTraceEvents: %v", err)
	}
	if !json.Valid(trace.Bytes()) {
		t.Fatalf("trace export is not valid JSON:\n%s", trace.String())
	}
}

type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

// TestRunnerServe covers the ServeAddr convenience path: the runner
// creates its own surface, serves it, and Close tears both down.
func TestRunnerServe(t *testing.T) {
	r := New(Options{Jobs: 1, ServeAddr: "127.0.0.1:0"})
	defer r.Close()
	addr, err := r.TelemetryAddr()
	if err != nil || addr == "" {
		t.Fatalf("TelemetryAddr = %q, %v", addr, err)
	}
	if !r.Telemetry().Enabled() {
		t.Fatal("ServeAddr did not enable telemetry")
	}
	if _, err := r.Run(quick()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/progress")
	if err != nil {
		t.Fatalf("GET /progress: %v", err)
	}
	defer resp.Body.Close()
	var p telemetry.Progress
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatalf("decoding /progress: %v", err)
	}
	if p.TotalJobs != 1 || p.DoneJobs != 1 || p.Workers != 1 {
		t.Errorf("/progress = %+v", p)
	}

	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/progress"); err == nil {
		t.Error("server still answering after Close")
	}
}

// TestRunnerServeBindError verifies a bad address degrades to an error on
// TelemetryAddr without sinking the sweep.
func TestRunnerServeBindError(t *testing.T) {
	r := New(Options{Jobs: 1, ServeAddr: "256.0.0.1:bad"})
	defer r.Close()
	if _, err := r.TelemetryAddr(); err == nil {
		t.Fatal("unservable address reported no error")
	}
	if _, err := r.Run(quick()); err != nil {
		t.Fatalf("sweep failed under a telemetry bind error: %v", err)
	}
}

// TestInterruptTelemetryDrainsQueue checks queue-cancelled jobs release
// their queued-gauge slot through the fromQueue path.
func TestInterruptTelemetryDrainsQueue(t *testing.T) {
	block := make(chan struct{})
	interrupt := make(chan struct{})
	exec := func(Request, ExecOptions) (*Outcome, error) {
		<-block
		return nil, errors.New("unreachable")
	}
	tel := telemetry.NewSweep(telemetry.SweepOptions{})
	r := New(Options{Jobs: 1, Interrupt: interrupt, Telemetry: tel, Execute: exec})
	r.Submit(quick())                                                                     // occupies the single worker
	r.Submit(Request{Workload: "histogram", Policy: "all-near", Threads: 2, Scale: 0.05}) // queued

	for tel.Progress().Running != 1 {
		time.Sleep(time.Millisecond)
	}
	close(interrupt)
	close(block)
	r.Wait()

	p := tel.Progress()
	if p.Queued != 0 || p.Running != 0 {
		t.Errorf("gauges not drained after interrupt: %d queued, %d running", p.Queued, p.Running)
	}
	if p.InterruptedJobs == 0 {
		t.Errorf("no interrupted jobs counted: %+v", p)
	}
}
