package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"dynamo/internal/obs"
)

// Outcome is a job's terminal state.
type Outcome string

const (
	// OutcomeCached marks a job answered by the persistent store.
	OutcomeCached Outcome = "cached"
	// OutcomeOK marks a job that simulated and persisted its result.
	OutcomeOK Outcome = "ok"
	// OutcomeFailed marks a job that exhausted its retries and was
	// quarantined.
	OutcomeFailed Outcome = "failed"
	// OutcomeInterrupted marks a job cancelled by the sweep interrupt; its
	// checkpoint (when one was captured) makes it resumable, not failed.
	OutcomeInterrupted Outcome = "interrupted"
)

// AttemptSpan is one execution attempt inside a job span. A retried job
// carries one attempt per execution; times are microseconds since the
// tracer started.
type AttemptSpan struct {
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Error   string `json:"error,omitempty"`
}

// JobSpan is the structured trace of one runner job, from submission to
// its terminal state: queued → cache-check → run (attempt sub-spans) →
// persist, quarantine or interrupt. One JSONL journal line per span.
type JobSpan struct {
	// Digest is the request's canonical content digest; Request its
	// human-readable rendering.
	Digest  string `json:"digest"`
	Request string `json:"request"`
	// QueuedUS is the submission time, StartUS the dequeue/cache-check
	// time, EndUS the terminal time — all microseconds since tracer start.
	QueuedUS int64 `json:"queued_us"`
	StartUS  int64 `json:"start_us"`
	EndUS    int64 `json:"end_us"`
	// Outcome is the terminal state; CacheHit marks a persistent-store
	// answer, Resumed a run restored from a checkpoint.
	Outcome  Outcome `json:"outcome"`
	CacheHit bool    `json:"cache_hit,omitempty"`
	Resumed  bool    `json:"resumed,omitempty"`
	// SimEvents is the kernel event count the job simulated (zero for
	// cache hits); Error the terminal error, when there was one.
	SimEvents uint64        `json:"sim_events,omitempty"`
	Error     string        `json:"error,omitempty"`
	Attempts  []AttemptSpan `json:"attempts,omitempty"`
}

// DefaultJobTail bounds the in-memory span tail when no capacity is given.
const DefaultJobTail = 256

// Tracer records completed job spans: each one is appended to the JSONL
// journal (when one is configured) and kept in a bounded in-memory tail
// for the /jobs endpoint. Safe for concurrent use.
type Tracer struct {
	start time.Time

	mu      sync.Mutex
	journal io.WriteCloser // nil: no journal
	tail    []JobSpan      // ring of the most recent spans
	cap     int
	total   uint64
}

// NewTracer builds a tracer keeping the most recent tailCap spans
// (DefaultJobTail if <= 0) and journaling to journal (nil disables).
func NewTracer(journal io.WriteCloser, tailCap int) *Tracer {
	if tailCap <= 0 {
		tailCap = DefaultJobTail
	}
	return &Tracer{start: time.Now(), journal: journal, cap: tailCap}
}

// now returns microseconds since the tracer started.
func (t *Tracer) now() int64 { return time.Since(t.start).Microseconds() }

// StartJob opens a span for a newly submitted job. A nil tracer returns a
// nil job, whose methods all no-op.
func (t *Tracer) StartJob(digest, request string) *Job {
	if t == nil {
		return nil
	}
	return &Job{t: t, span: JobSpan{Digest: digest, Request: request, QueuedUS: t.now()}}
}

// record closes a span into the tail and the journal. Journal write
// failures degrade the journal (dropped line), never the sweep.
func (t *Tracer) record(span JobSpan) {
	line, err := json.Marshal(span)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	if len(t.tail) == t.cap {
		copy(t.tail, t.tail[1:])
		t.tail = t.tail[:t.cap-1]
	}
	t.tail = append(t.tail, span)
	if t.journal != nil && err == nil {
		t.journal.Write(append(line, '\n'))
	}
}

// Tail returns up to n of the most recent completed spans in completion
// order (n <= 0 returns the whole retained tail).
func (t *Tracer) Tail(n int) []JobSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > len(t.tail) {
		n = len(t.tail)
	}
	out := make([]JobSpan, n)
	copy(out, t.tail[len(t.tail)-n:])
	return out
}

// Find returns the most recent completed span for digest, when one is
// still in the retained tail (a digest that completed more than once —
// retried across sweeps, say — reports its latest completion). The sweep
// service's /v1/jobs/{digest}/span endpoint reads through it.
func (t *Tracer) Find(digest string) (JobSpan, bool) {
	if t == nil {
		return JobSpan{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.tail) - 1; i >= 0; i-- {
		if t.tail[i].Digest == digest {
			return t.tail[i], true
		}
	}
	return JobSpan{}, false
}

// Total returns how many spans completed over the tracer's lifetime
// (including any evicted from the tail).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Close closes the journal, if one is configured.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.journal == nil {
		return nil
	}
	err := t.journal.Close()
	t.journal = nil
	return err
}

// Job is one in-flight span handle. Methods are called from the job's own
// goroutine (plus StartJob from the submitter, which happens-before the
// run); all are safe on a nil receiver.
type Job struct {
	t    *Tracer
	span JobSpan
}

// Begin marks the dequeue/cache-check time.
func (j *Job) Begin() {
	if j == nil {
		return
	}
	j.span.StartUS = j.t.now()
}

// MarkResumed records that the run restored from a persisted checkpoint.
func (j *Job) MarkResumed() {
	if j == nil {
		return
	}
	j.span.Resumed = true
}

// AttemptStart opens an execution attempt sub-span.
func (j *Job) AttemptStart() {
	if j == nil {
		return
	}
	j.span.Attempts = append(j.span.Attempts, AttemptSpan{StartUS: j.t.now()})
}

// AttemptEnd closes the current attempt, recording its error if any.
func (j *Job) AttemptEnd(err error) {
	if j == nil || len(j.span.Attempts) == 0 {
		return
	}
	a := &j.span.Attempts[len(j.span.Attempts)-1]
	a.EndUS = j.t.now()
	if err != nil {
		a.Error = err.Error()
	}
}

// Done closes the span with its terminal state and records it. A span
// that never ran (cache hit, interrupted in queue) gets its StartUS
// backfilled so the rendered queue phase stays well-formed.
func (j *Job) Done(outcome Outcome, simEvents uint64, err error) {
	if j == nil {
		return
	}
	j.span.EndUS = j.t.now()
	if j.span.StartUS == 0 {
		j.span.StartUS = j.span.EndUS
	}
	j.span.Outcome = outcome
	j.span.CacheHit = outcome == OutcomeCached
	j.span.SimEvents = simEvents
	if err != nil {
		j.span.Error = err.Error()
	}
	j.t.record(j.span)
}

// ReadJournal parses an append-only JSONL job journal back into spans.
// Lines that fail to parse abort with their line number, so a truncated
// tail (a crashed sweep) is reported, not silently dropped.
func ReadJournal(r io.Reader) ([]JobSpan, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var spans []JobSpan
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s JobSpan
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return spans, fmt.Errorf("telemetry: journal line %d: %w", line, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return spans, fmt.Errorf("telemetry: reading journal: %w", err)
	}
	return spans, nil
}

// ExportTraceEvents renders a job journal as a Chrome trace-event
// document, so a whole sweep opens in ui.perfetto.dev alongside the
// simulation timelines of obs.WriteTimeline. Jobs are packed onto lanes
// (greedy first-fit by span overlap); each job renders as a slice from
// submission to completion with a nested "queued" phase and one nested
// slice per execution attempt. Timestamps are journal microseconds, so
// 1 ms of sweep wall-clock renders as 1 ms.
func ExportTraceEvents(journal io.Reader, w io.Writer) error {
	spans, err := ReadJournal(journal)
	if err != nil {
		return err
	}
	te := obs.NewTraceEvents(w)
	const pid = 1
	te.Emit(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":"sweep jobs"}}`, pid)
	var laneEnd []int64
	lanes := make([]int, len(spans))
	for i, s := range spans {
		lane := -1
		for l, end := range laneEnd {
			if end <= s.QueuedUS {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
			te.Emit(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":"lane %d"}}`,
				pid, lane, lane)
		}
		laneEnd[lane] = s.EndUS
		lanes[i] = lane
	}
	for i, s := range spans {
		tid := lanes[i]
		te.Emit(`{"ph":"X","cat":"job","name":%q,"pid":%d,"tid":%d,"ts":%d,"dur":%d,`+
			`"args":{"digest":%q,"outcome":%q,"cache_hit":%t,"resumed":%t,"sim_events":%d,"error":%q}}`,
			s.Request, pid, tid, s.QueuedUS, s.EndUS-s.QueuedUS,
			s.Digest, s.Outcome, s.CacheHit, s.Resumed, s.SimEvents, s.Error)
		if s.StartUS > s.QueuedUS {
			te.Emit(`{"ph":"X","cat":"phase","name":"queued","pid":%d,"tid":%d,"ts":%d,"dur":%d}`,
				pid, tid, s.QueuedUS, s.StartUS-s.QueuedUS)
		}
		for n, a := range s.Attempts {
			te.Emit(`{"ph":"X","cat":"phase","name":"attempt %d","pid":%d,"tid":%d,"ts":%d,"dur":%d,"args":{"error":%q}}`,
				n+1, pid, tid, a.StartUS, a.EndUS-a.StartUS, a.Error)
		}
	}
	return te.Close()
}

// OpenJournal opens (appending, creating if needed) a JSONL journal file
// for NewSweep.
func OpenJournal(path string) (io.WriteCloser, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: opening journal: %w", err)
	}
	return f, nil
}
