package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- metrics registry ---

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	var done, failed atomic.Uint64
	var depth atomic.Int64
	r.Func("jobs_total", "counter", `state="done"`, "Jobs by state.", uintText(&done))
	r.Func("jobs_total", "counter", `state="failed"`, "Jobs by state.", uintText(&failed))
	r.Func("queue_depth", "gauge", "", "Jobs waiting.", intText(&depth))
	var secs FloatCounter
	r.Func("sim_seconds_total", "counter", "", "Seconds simulated.", func() string { return formatFloat(secs.Value()) })
	util := 0.0
	r.Func("utilization", "gauge", "", "Busy fraction.", func() string { return formatFloat(util) })

	done.Add(3)
	failed.Add(1)
	depth.Store(7)
	depth.Add(-2)
	secs.Add(1.5)
	secs.Add(0.25)
	util = 0.5

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# HELP jobs_total Jobs by state.
# TYPE jobs_total counter
jobs_total{state="done"} 3
jobs_total{state="failed"} 1
# HELP queue_depth Jobs waiting.
# TYPE queue_depth gauge
queue_depth 5
# HELP sim_seconds_total Seconds simulated.
# TYPE sim_seconds_total counter
sim_seconds_total 1.75
# HELP utilization Busy fraction.
# TYPE utilization gauge
utilization 0.5
`
	if got := buf.String(); got != want {
		t.Errorf("rendered metrics mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dur_seconds", "Durations.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# HELP dur_seconds Durations.
# TYPE dur_seconds histogram
dur_seconds_bucket{le="0.1"} 2
dur_seconds_bucket{le="1"} 3
dur_seconds_bucket{le="10"} 4
dur_seconds_bucket{le="+Inf"} 5
dur_seconds_sum 102.65
dur_seconds_count 5
`
	if got := buf.String(); got != want {
		t.Errorf("rendered histogram mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	zero := func() string { return "0" }
	r.Func("x_total", "counter", "", "", zero)
	defer func() {
		if recover() == nil {
			t.Errorf("registering x_total as gauge after counter did not panic")
		}
	}()
	r.Func("x_total", "gauge", "", "", zero)
}

// TestRegistryConcurrent updates every kind of series from many
// goroutines while scraping; run under -race this verifies the lock-cheap
// update paths are clean.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var c atomic.Uint64
	r.Func("c_total", "counter", "", "", uintText(&c))
	var fc FloatCounter
	r.Func("fc_total", "counter", "", "", func() string { return formatFloat(fc.Value()) })
	var g atomic.Int64
	r.Func("g", "gauge", "", "", intText(&g))
	h := r.Histogram("h", "", []float64{1, 2})

	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Add(1)
				fc.Add(0.5)
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i % 3))
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatalf("concurrent WritePrometheus: %v", err)
		}
	}
	wg.Wait()
	if got := c.Load(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := fc.Value(); got != workers*iters*0.5 {
		t.Errorf("float counter = %g, want %g", got, workers*iters*0.5)
	}
	if got := g.Load(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var fc *FloatCounter
	var h *Histogram
	fc.Add(1)
	h.Observe(1)
	if fc.Value() != 0 || h.Count() != 0 {
		t.Errorf("nil instruments returned non-zero values")
	}
}

// --- tracer and journal ---

type closeBuffer struct {
	bytes.Buffer
	closed bool
}

func (b *closeBuffer) Close() error { b.closed = true; return nil }

func TestTracerJournalRoundTrip(t *testing.T) {
	var buf closeBuffer
	tr := NewTracer(&buf, 8)

	j := tr.StartJob("d1", "fig7/mcs/64c")
	j.Begin()
	j.AttemptStart()
	j.AttemptEnd(errors.New("transient"))
	j.AttemptStart()
	j.AttemptEnd(nil)
	j.Done(OutcomeOK, 1234, nil)

	k := tr.StartJob("d2", "fig7/mcs/128c")
	k.Done(OutcomeCached, 0, nil)

	f := tr.StartJob("d3", "fig7/cna/64c")
	f.Begin()
	f.AttemptStart()
	f.AttemptEnd(errors.New("boom"))
	f.Done(OutcomeFailed, 0, errors.New("boom"))

	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !buf.closed {
		t.Errorf("Close did not close the journal writer")
	}
	if tr.Total() != 3 {
		t.Errorf("Total = %d, want 3", tr.Total())
	}

	spans, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if len(spans) != 3 {
		t.Fatalf("ReadJournal returned %d spans, want 3", len(spans))
	}
	s := spans[0]
	if s.Digest != "d1" || s.Request != "fig7/mcs/64c" || s.Outcome != OutcomeOK {
		t.Errorf("span 0 = %+v", s)
	}
	if len(s.Attempts) != 2 || s.Attempts[0].Error != "transient" || s.Attempts[1].Error != "" {
		t.Errorf("span 0 attempts = %+v", s.Attempts)
	}
	if s.SimEvents != 1234 || s.CacheHit {
		t.Errorf("span 0 events/cache = %d/%t", s.SimEvents, s.CacheHit)
	}
	if !spans[1].CacheHit || spans[1].Outcome != OutcomeCached {
		t.Errorf("span 1 should be a cache hit: %+v", spans[1])
	}
	if spans[1].StartUS < spans[1].QueuedUS || spans[1].EndUS < spans[1].StartUS {
		t.Errorf("span 1 times not monotone: %+v", spans[1])
	}
	if spans[2].Outcome != OutcomeFailed || spans[2].Error != "boom" {
		t.Errorf("span 2 = %+v", spans[2])
	}

	// The in-memory tail matches the journal.
	tail := tr.Tail(0)
	if len(tail) != 3 || tail[2].Digest != "d3" {
		t.Errorf("Tail = %+v", tail)
	}
	if got := tr.Tail(1); len(got) != 1 || got[0].Digest != "d3" {
		t.Errorf("Tail(1) = %+v", got)
	}
}

func TestTracerTailEviction(t *testing.T) {
	tr := NewTracer(nil, 2)
	for i := 0; i < 5; i++ {
		tr.StartJob(fmt.Sprintf("d%d", i), "r").Done(OutcomeOK, 0, nil)
	}
	if tr.Total() != 5 {
		t.Errorf("Total = %d, want 5", tr.Total())
	}
	tail := tr.Tail(0)
	if len(tail) != 2 || tail[0].Digest != "d3" || tail[1].Digest != "d4" {
		t.Errorf("Tail after eviction = %+v", tail)
	}
}

// TestTracerWithoutJournalAllocates0: a tracer with no journal encodes
// nothing, so closing a span into a full tail allocates nothing.
func TestTracerWithoutJournalAllocates0(t *testing.T) {
	tr := NewTracer(nil, 4)
	span := JobSpan{Digest: "d", Request: "r", Outcome: OutcomeOK,
		Attempts: []AttemptSpan{{StartUS: 1, EndUS: 2}}}
	for i := 0; i < 4; i++ {
		tr.record(span)
	}
	if allocs := testing.AllocsPerRun(100, func() { tr.record(span) }); allocs != 0 {
		t.Errorf("record allocates %.1f per span without a journal, want 0", allocs)
	}
}

func TestReadJournalBadLine(t *testing.T) {
	in := "{\"digest\":\"a\",\"request\":\"r\",\"queued_us\":0,\"start_us\":0,\"end_us\":1,\"outcome\":\"ok\"}\nnot json\n"
	spans, err := ReadJournal(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("ReadJournal error = %v, want line-2 parse error", err)
	}
	if len(spans) != 1 {
		t.Errorf("ReadJournal kept %d spans before the bad line, want 1", len(spans))
	}
}

func TestExportTraceEvents(t *testing.T) {
	var buf closeBuffer
	tr := NewTracer(&buf, 8)
	j := tr.StartJob("d1", "fig7/mcs/64c")
	j.Begin()
	j.AttemptStart()
	j.AttemptEnd(nil)
	j.Done(OutcomeOK, 10, nil)
	tr.StartJob("d2", `req "quoted"`).Done(OutcomeCached, 0, nil)
	tr.Close()

	var out bytes.Buffer
	if err := ExportTraceEvents(bytes.NewReader(buf.Bytes()), &out); err != nil {
		t.Fatalf("ExportTraceEvents: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var jobs, attempts int
	var sawQuoted bool
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Cat == "job":
			jobs++
			if ev.Name == `req "quoted"` {
				sawQuoted = true
			}
		case ev.Cat == "phase" && strings.HasPrefix(ev.Name, "attempt"):
			attempts++
		}
	}
	if jobs != 2 || attempts != 1 {
		t.Errorf("export has %d job slices and %d attempts, want 2 and 1", jobs, attempts)
	}
	if !sawQuoted {
		t.Errorf("quoted request name did not survive the export")
	}
}

// --- sweep surface ---

func TestNilSweepIsSafe(t *testing.T) {
	var s *Sweep
	if s.Enabled() {
		t.Fatalf("nil sweep reports enabled")
	}
	if c := s.Counts(); c != nil {
		t.Errorf("nil sweep returned a counter block")
	}
	s.ObserveJob(time.Second)
	if j := s.StartJob("d", "r"); j != nil {
		t.Errorf("nil sweep returned a non-nil job")
	}
	var j *Job
	j.Begin()
	j.MarkResumed()
	j.AttemptStart()
	j.AttemptEnd(nil)
	j.Done(OutcomeOK, 0, nil)
	if p := s.Progress(); p != (Progress{}) {
		t.Errorf("nil sweep progress = %+v", p)
	}
	if err := s.WriteMetrics(io.Discard); err != nil {
		t.Errorf("nil WriteMetrics: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// disabledJob is one job's path through a disabled (nil) surface, plus the
// counts a runner without telemetry bumps in a block of its own.
func disabledJob(s *Sweep, c *Counts) {
	c.Requests.Add(1)
	c.Submitted.Add(1)
	c.Queued.Add(1)
	j := s.StartJob("d", "r")
	j.Begin()
	c.Queued.Add(-1)
	c.Running.Add(1)
	j.AttemptStart()
	j.AttemptEnd(nil)
	c.Running.Add(-1)
	c.Misses.Add(1)
	c.SimEvents.Add(42)
	c.SimNanos.Add(int64(time.Millisecond))
	s.ObserveJob(time.Millisecond)
	j.Done(OutcomeOK, 42, nil)
}

// TestDisabledPathAllocates0 asserts the zero-cost contract: a job's whole
// path on a disabled (nil) surface allocates nothing.
func TestDisabledPathAllocates0(t *testing.T) {
	var s *Sweep
	if s.Enabled() || s.Counts() != nil {
		t.Fatalf("nil sweep enabled")
	}
	var c Counts
	if allocs := testing.AllocsPerRun(100, func() { disabledJob(s, &c) }); allocs != 0 {
		t.Errorf("disabled job path allocates %.1f times per job, want 0", allocs)
	}
}

func TestSweepProgress(t *testing.T) {
	s := NewSweep(SweepOptions{})
	c := s.Counts()
	c.Workers.Store(4)
	for i := 0; i < 10; i++ {
		c.Requests.Add(1)
		c.Submitted.Add(1)
		c.Queued.Add(1)
	}
	c.Requests.Add(1)
	c.Deduped.Add(1) // 11th submit hits the in-memory cache

	c.Queued.Add(-1) // disk hit
	c.DiskHits.Add(1)
	c.SavedNanos.Add(int64(3 * time.Second))
	for i := 0; i < 4; i++ { // four simulated successes
		c.Queued.Add(-1)
		c.Running.Add(1)
		c.Running.Add(-1)
		c.Misses.Add(1)
		c.SimEvents.Add(1000)
		c.SimNanos.Add(int64(500 * time.Millisecond))
		s.ObserveJob(500 * time.Millisecond)
	}
	c.Queued.Add(-1) // one failure, with one retry and a panic
	c.Running.Add(1)
	c.Retries.Add(1)
	c.Running.Add(-1)
	c.Failed.Add(1)
	c.Panics.Add(1)
	s.ObserveJob(time.Second)
	c.Queued.Add(-1) // one cancelled in queue
	c.Interrupted.Add(1)

	p := s.Progress()
	if p.TotalJobs != 10 || p.DoneJobs != 5 || p.FailedJobs != 1 || p.InterruptedJobs != 1 {
		t.Errorf("progress jobs = %d/%d done, %d failed, %d interrupted",
			p.DoneJobs, p.TotalJobs, p.FailedJobs, p.InterruptedJobs)
	}
	if p.Finished() != 7 {
		t.Errorf("Finished = %d, want 7", p.Finished())
	}
	if p.MemoryHits != 1 || p.DiskHits != 1 || p.Misses != 4 || p.Retries != 1 || p.Panics != 1 {
		t.Errorf("progress cache = %+v", p)
	}
	if p.Queued != 3 || p.Running != 0 {
		t.Errorf("progress queue = %d queued, %d running; want 3, 0", p.Queued, p.Running)
	}
	if p.SimEvents != 4000 {
		t.Errorf("progress sim events = %d, want 4000", p.SimEvents)
	}
	if p.EventsPerSec != 2000 {
		t.Errorf("events/sec = %g, want 2000", p.EventsPerSec)
	}
	if p.ETASeconds <= 0 {
		t.Errorf("ETA = %g, want > 0 with 3 jobs outstanding", p.ETASeconds)
	}

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	for _, want := range []string{
		`dynamo_sweep_jobs_total{state="done"} 5`,
		`dynamo_sweep_jobs_total{state="submitted"} 10`,
		`dynamo_sweep_cache_total{event="disk_hit"} 1`,
		`dynamo_sweep_retries_total 1`,
		`dynamo_sweep_panics_total 1`,
		`dynamo_sweep_workers 4`,
		`dynamo_sweep_sim_events_total 4000`,
		`dynamo_sweep_job_duration_seconds_count 5`,
		`dynamo_sweep_events_per_second 2000`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics output missing %q:\n%s", want, buf.String())
		}
	}
}

// sweepSeries is every HELP and TYPE line and every series a sweep renders
// on /metrics, in order and without values. It was captured from the
// surface that kept a registry counter per count, before the counter
// block replaced them: the block must not move a family, label or help
// text.
const sweepSeries = `# HELP dynamo_runner_preemptions_total Jobs that yielded at a checkpoint boundary to make room for another sweep.
# TYPE dynamo_runner_preemptions_total counter
dynamo_runner_preemptions_total
# HELP dynamo_service_deadline_expired_total Jobs abandoned because their sweep's deadline passed.
# TYPE dynamo_service_deadline_expired_total counter
dynamo_service_deadline_expired_total
# HELP dynamo_service_overloaded_total Sweep submissions rejected by the bounded admission queue.
# TYPE dynamo_service_overloaded_total counter
dynamo_service_overloaded_total
# HELP dynamo_sweep_cache_total Result cache activity.
# TYPE dynamo_sweep_cache_total counter
dynamo_sweep_cache_total{event="memory_hit"}
dynamo_sweep_cache_total{event="disk_hit"}
dynamo_sweep_cache_total{event="miss"}
dynamo_sweep_cache_total{event="eviction"}
# HELP dynamo_sweep_events_per_second Aggregate simulated events per second of simulation wall-clock.
# TYPE dynamo_sweep_events_per_second gauge
dynamo_sweep_events_per_second
# HELP dynamo_sweep_job_duration_seconds Executed-job wall-clock, cache hits excluded.
# TYPE dynamo_sweep_job_duration_seconds histogram
dynamo_sweep_job_duration_seconds_bucket{le="0.005"}
dynamo_sweep_job_duration_seconds_bucket{le="0.01"}
dynamo_sweep_job_duration_seconds_bucket{le="0.025"}
dynamo_sweep_job_duration_seconds_bucket{le="0.05"}
dynamo_sweep_job_duration_seconds_bucket{le="0.1"}
dynamo_sweep_job_duration_seconds_bucket{le="0.25"}
dynamo_sweep_job_duration_seconds_bucket{le="0.5"}
dynamo_sweep_job_duration_seconds_bucket{le="1"}
dynamo_sweep_job_duration_seconds_bucket{le="2.5"}
dynamo_sweep_job_duration_seconds_bucket{le="5"}
dynamo_sweep_job_duration_seconds_bucket{le="10"}
dynamo_sweep_job_duration_seconds_bucket{le="30"}
dynamo_sweep_job_duration_seconds_bucket{le="60"}
dynamo_sweep_job_duration_seconds_bucket{le="120"}
dynamo_sweep_job_duration_seconds_bucket{le="300"}
dynamo_sweep_job_duration_seconds_bucket{le="+Inf"}
dynamo_sweep_job_duration_seconds_sum
dynamo_sweep_job_duration_seconds_count
# HELP dynamo_sweep_jobs_queued Jobs submitted but not yet running or finished.
# TYPE dynamo_sweep_jobs_queued gauge
dynamo_sweep_jobs_queued
# HELP dynamo_sweep_jobs_running Jobs currently executing on the worker pool.
# TYPE dynamo_sweep_jobs_running gauge
dynamo_sweep_jobs_running
# HELP dynamo_sweep_jobs_total Jobs by state.
# TYPE dynamo_sweep_jobs_total counter
dynamo_sweep_jobs_total{state="deduped"}
dynamo_sweep_jobs_total{state="submitted"}
dynamo_sweep_jobs_total{state="done"}
dynamo_sweep_jobs_total{state="failed"}
dynamo_sweep_jobs_total{state="interrupted"}
# HELP dynamo_sweep_panics_total Jobs whose simulation panicked (recovered).
# TYPE dynamo_sweep_panics_total counter
dynamo_sweep_panics_total
# HELP dynamo_sweep_requests_total Submit calls, before dedupe.
# TYPE dynamo_sweep_requests_total counter
dynamo_sweep_requests_total
# HELP dynamo_sweep_resumed_total Jobs restored from a persisted checkpoint.
# TYPE dynamo_sweep_resumed_total counter
dynamo_sweep_resumed_total
# HELP dynamo_sweep_retries_total Re-executions of transiently failed jobs.
# TYPE dynamo_sweep_retries_total counter
dynamo_sweep_retries_total
# HELP dynamo_sweep_saved_seconds_total Recorded simulation time served from the persistent store.
# TYPE dynamo_sweep_saved_seconds_total counter
dynamo_sweep_saved_seconds_total
# HELP dynamo_sweep_sim_events_total Kernel events executed by simulated (non-cached) jobs.
# TYPE dynamo_sweep_sim_events_total counter
dynamo_sweep_sim_events_total
# HELP dynamo_sweep_sim_seconds_total Wall-clock spent simulating jobs.
# TYPE dynamo_sweep_sim_seconds_total counter
dynamo_sweep_sim_seconds_total
# HELP dynamo_sweep_worker_utilization Running jobs over pool size (at scrape).
# TYPE dynamo_sweep_worker_utilization gauge
dynamo_sweep_worker_utilization
# HELP dynamo_sweep_workers Worker-pool size.
# TYPE dynamo_sweep_workers gauge
dynamo_sweep_workers
# HELP dynamo_work_checkpoints_total Checkpoints shipped by workers over heartbeats.
# TYPE dynamo_work_checkpoints_total counter
dynamo_work_checkpoints_total
# HELP dynamo_work_commits_total Worker result commits by outcome.
# TYPE dynamo_work_commits_total counter
dynamo_work_commits_total{outcome="ok"}
dynamo_work_commits_total{outcome="duplicate"}
dynamo_work_commits_total{outcome="fenced"}
dynamo_work_commits_total{outcome="failed"}
# HELP dynamo_work_leases Work leases currently held by workers.
# TYPE dynamo_work_leases gauge
dynamo_work_leases
# HELP dynamo_work_leases_total Work-lease lifecycle events.
# TYPE dynamo_work_leases_total counter
dynamo_work_leases_total{event="granted"}
dynamo_work_leases_total{event="expired"}
dynamo_work_leases_total{event="released"}
dynamo_work_leases_total{event="revoked"}
dynamo_work_leases_total{event="committed"}
# HELP dynamo_work_workers Distinct workers currently holding at least one lease.
# TYPE dynamo_work_workers gauge
dynamo_work_workers
`

// TestSweepMetricsSeries bumps every field of the counter block once, each
// by a different amount so that a series reading the wrong field shows,
// and checks the rendered families, series and values.
func TestSweepMetricsSeries(t *testing.T) {
	s := NewSweep(SweepOptions{})
	c := s.Counts()
	c.Requests.Add(1)
	c.Submitted.Add(2)
	c.Deduped.Add(3)
	c.DiskHits.Add(4)
	c.Misses.Add(5)
	c.Failed.Add(6)
	c.Panics.Add(7)
	c.Interrupted.Add(8)
	c.Evictions.Add(9)
	c.Retries.Add(10)
	c.Resumed.Add(11)
	c.Preempted.Add(12)
	c.Overloaded.Add(13)
	c.Expired.Add(14)
	c.SimEvents.Add(15)
	c.SimNanos.Add(int64(3 * time.Second))
	c.SavedNanos.Add(int64(1500 * time.Millisecond))
	c.Queued.Add(16)
	c.Running.Add(2)
	c.LeaseGranted.Add(100)
	c.LeaseExpired.Add(17)
	c.LeaseReleased.Add(18)
	c.LeaseRevoked.Add(19)
	c.LeaseCommitted.Add(20)
	c.CommitOK.Add(21)
	c.CommitDuplicate.Add(22)
	c.CommitFenced.Add(23)
	c.CommitFailed.Add(24)
	c.Shipped.Add(25)
	c.FleetWorkers.Store(27)
	c.Workers.Store(32)
	s.ObserveJob(time.Second)

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	var skeleton strings.Builder
	values := map[string]string{}
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			skeleton.WriteString(line)
			continue
		}
		series, value, _ := strings.Cut(strings.TrimSuffix(line, "\n"), " ")
		skeleton.WriteString(series + "\n")
		values[series] = value
	}
	if got := skeleton.String(); got != sweepSeries {
		t.Errorf("rendered series:\n%s\nwant:\n%s", got, sweepSeries)
	}
	for series, want := range map[string]string{
		"dynamo_sweep_requests_total":                    "1",
		`dynamo_sweep_jobs_total{state="deduped"}`:       "3",
		`dynamo_sweep_jobs_total{state="submitted"}`:     "2",
		`dynamo_sweep_jobs_total{state="done"}`:          "9",
		`dynamo_sweep_jobs_total{state="failed"}`:        "6",
		`dynamo_sweep_jobs_total{state="interrupted"}`:   "8",
		`dynamo_sweep_cache_total{event="memory_hit"}`:   "3",
		`dynamo_sweep_cache_total{event="disk_hit"}`:     "4",
		`dynamo_sweep_cache_total{event="miss"}`:         "5",
		`dynamo_sweep_cache_total{event="eviction"}`:     "9",
		"dynamo_sweep_panics_total":                      "7",
		"dynamo_sweep_retries_total":                     "10",
		"dynamo_sweep_resumed_total":                     "11",
		"dynamo_runner_preemptions_total":                "12",
		"dynamo_service_overloaded_total":                "13",
		"dynamo_service_deadline_expired_total":          "14",
		"dynamo_sweep_sim_events_total":                  "15",
		"dynamo_sweep_sim_seconds_total":                 "3",
		"dynamo_sweep_saved_seconds_total":               "1.5",
		"dynamo_sweep_events_per_second":                 "5",
		"dynamo_sweep_jobs_queued":                       "16",
		"dynamo_sweep_jobs_running":                      "2",
		"dynamo_sweep_workers":                           "32",
		"dynamo_sweep_worker_utilization":                "0.0625",
		"dynamo_sweep_job_duration_seconds_count":        "1",
		`dynamo_work_leases_total{event="granted"}`:      "100",
		`dynamo_work_leases_total{event="expired"}`:      "17",
		`dynamo_work_leases_total{event="released"}`:     "18",
		`dynamo_work_leases_total{event="revoked"}`:      "19",
		`dynamo_work_leases_total{event="committed"}`:    "20",
		`dynamo_work_commits_total{outcome="ok"}`:        "21",
		`dynamo_work_commits_total{outcome="duplicate"}`: "22",
		`dynamo_work_commits_total{outcome="fenced"}`:    "23",
		`dynamo_work_commits_total{outcome="failed"}`:    "24",
		"dynamo_work_checkpoints_total":                  "25",
		// Granted minus the four ends: 100 - (17+18+19+20).
		"dynamo_work_leases":  "26",
		"dynamo_work_workers": "27",
	} {
		if got := values[series]; got != want {
			t.Errorf("%s = %q, want %q", series, got, want)
		}
	}
}

// --- HTTP server ---

func TestServerEndpoints(t *testing.T) {
	s := NewSweep(SweepOptions{})
	c := s.Counts()
	c.Workers.Store(2)
	c.Requests.Add(1)
	c.Submitted.Add(1)
	s.StartJob("d1", "fig7/mcs/64c").Done(OutcomeOK, 5, nil)
	c.Misses.Add(1)
	c.SimEvents.Add(5)
	c.SimNanos.Add(int64(10 * time.Millisecond))
	s.ObserveJob(10 * time.Millisecond)

	srv, err := Serve("127.0.0.1:0", s)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, `dynamo_sweep_jobs_total{state="done"} 1`) {
		t.Errorf("/metrics: code %d, body:\n%s", code, body)
	}

	code, body := get("/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress: code %d", code)
	}
	var p Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/progress is not Progress JSON: %v\n%s", err, body)
	}
	if p.DoneJobs != 1 || p.TotalJobs != 1 || p.Workers != 2 {
		t.Errorf("/progress = %+v", p)
	}

	code, body = get("/jobs")
	if code != http.StatusOK {
		t.Fatalf("/jobs: code %d", code)
	}
	var jobs struct {
		Total uint64    `json:"total"`
		Jobs  []JobSpan `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(body), &jobs); err != nil {
		t.Fatalf("/jobs is not JSON: %v\n%s", err, body)
	}
	if jobs.Total != 1 || len(jobs.Jobs) != 1 || jobs.Jobs[0].Digest != "d1" {
		t.Errorf("/jobs = %+v", jobs)
	}

	if code, _ := get("/jobs?n=bad"); code != http.StatusBadRequest {
		t.Errorf("/jobs?n=bad: code %d, want 400", code)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("/nope: code %d, want 404", code)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index: code %d, body %q", code, body)
	}
}

// BenchmarkDisabledJobPath measures a job's path on a disabled surface;
// the 0-alloc assertion lives in TestDisabledPathAllocates0.
func BenchmarkDisabledJobPath(b *testing.B) {
	var s *Sweep
	var c Counts
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disabledJob(s, &c)
	}
}
