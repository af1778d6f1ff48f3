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
	"testing"
	"time"
)

// --- metrics registry ---

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	done := r.Counter("jobs_total", `state="done"`, "Jobs by state.")
	failed := r.Counter("jobs_total", `state="failed"`, "Jobs by state.")
	depth := r.Gauge("queue_depth", "", "Jobs waiting.")
	secs := r.FloatCounter("sim_seconds_total", "", "Seconds simulated.")
	util := r.FloatGauge("utilization", "", "Busy fraction.")

	done.Add(3)
	failed.Inc()
	depth.Set(7)
	depth.Add(-2)
	secs.Add(1.5)
	secs.Add(0.25)
	util.Set(0.5)

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
	r.Counter("x_total", "", "")
	defer func() {
		if recover() == nil {
			t.Errorf("registering x_total as gauge after counter did not panic")
		}
	}()
	r.Gauge("x_total", "", "")
}

// TestRegistryConcurrent exercises every instrument from many goroutines
// while scraping; run under -race this verifies the lock-cheap update
// paths are clean.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", "")
	fc := r.FloatCounter("fc_total", "", "")
	g := r.Gauge("g", "", "")
	h := r.Histogram("h", "", []float64{1, 2})

	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
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
	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := fc.Value(); got != workers*iters*0.5 {
		t.Errorf("float counter = %g, want %g", got, workers*iters*0.5)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var fc *FloatCounter
	var g *Gauge
	var fg *FloatGauge
	var h *Histogram
	c.Inc()
	c.Add(2)
	fc.Add(1)
	g.Set(1)
	g.Add(1)
	fg.Set(1)
	h.Observe(1)
	if c.Value() != 0 || fc.Value() != 0 || g.Value() != 0 || fg.Value() != 0 || h.Count() != 0 {
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
	s.Submitted()
	s.JobDeduped()
	s.JobQueued()
	s.JobCached(time.Second)
	s.Eviction()
	s.JobResumed()
	s.JobRunning()
	s.JobRunDone()
	s.Retry()
	s.JobSucceeded(time.Second, 10)
	s.JobFailed(true, time.Second)
	s.JobInterrupted(true)
	s.SetWorkers(4)
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

// TestDisabledPathAllocates0 asserts the zero-cost contract: the full
// per-job hook sequence on a disabled (nil) surface allocates nothing.
func TestDisabledPathAllocates0(t *testing.T) {
	var s *Sweep
	allocs := testing.AllocsPerRun(100, func() {
		s.Submitted()
		s.JobQueued()
		if s.Enabled() {
			t.Fatalf("nil sweep enabled")
		}
		var j *Job
		j.Begin()
		s.JobRunning()
		j.AttemptStart()
		j.AttemptEnd(nil)
		s.JobRunDone()
		s.JobSucceeded(time.Millisecond, 42)
		j.Done(OutcomeOK, 42, nil)
	})
	if allocs != 0 {
		t.Errorf("disabled job path allocates %.1f bytes/op, want 0", allocs)
	}
}

func TestSweepProgress(t *testing.T) {
	s := NewSweep(SweepOptions{})
	s.SetWorkers(4)
	for i := 0; i < 10; i++ {
		s.Submitted()
		s.JobQueued()
	}
	s.Submitted()
	s.JobDeduped() // 11th submit hits the in-memory cache

	s.JobCached(3 * time.Second) // disk hit
	for i := 0; i < 4; i++ {     // four simulated successes
		s.JobRunning()
		s.JobRunDone()
		s.JobSucceeded(500*time.Millisecond, 1000)
	}
	s.JobRunning() // one failure, with one retry and a panic
	s.Retry()
	s.JobRunDone()
	s.JobFailed(true, time.Second)
	s.JobInterrupted(true) // one cancelled in queue

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

// --- HTTP server ---

func TestServerEndpoints(t *testing.T) {
	s := NewSweep(SweepOptions{})
	s.SetWorkers(2)
	s.Submitted()
	s.JobQueued()
	s.StartJob("d1", "fig7/mcs/64c").Done(OutcomeOK, 5, nil)
	s.JobRunning()
	s.JobRunDone()
	s.JobSucceeded(10*time.Millisecond, 5)

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

// BenchmarkDisabledJobPath measures the nil-surface hook sequence; the
// 0-alloc assertion lives in TestDisabledPathAllocates0.
func BenchmarkDisabledJobPath(b *testing.B) {
	var s *Sweep
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Submitted()
		s.JobQueued()
		var j *Job
		j.Begin()
		s.JobRunning()
		j.AttemptStart()
		j.AttemptEnd(nil)
		s.JobRunDone()
		s.JobSucceeded(time.Millisecond, 42)
		j.Done(OutcomeOK, 42, nil)
	}
}
