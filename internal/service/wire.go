// Package service is the sweep control plane: a long-running HTTP/JSON
// front end over the runner that accepts whole sweeps, schedules them
// fairly against each other through one in-memory lease table, serves
// results out of the content-addressed cache, and survives restarts. The
// runner is the only code that reads or writes a job's files — results,
// checkpoints, quarantine markers; the service persists only its sweeps.
//
// The wire API is deliberately thin. A request on the wire is exactly
// runner.Request — the same struct, the same stable lowercase JSON field
// names the canonical digest is computed over — so a served sweep, a CLI
// sweep and a warm cache are byte-identical and dedupe globally. The
// document is versioned by runner.WireSchema; the canonical digest is
// versioned separately by runner.ConfigSchema.
//
// Routes (all under /v1):
//
//	POST   /v1/sweeps             submit a batch of requests → sweep id + per-job digests
//	GET    /v1/sweeps/{id}        sweep status: per-job states, counts, ETA (?wait=1: held)
//	DELETE /v1/sweeps/{id}        cancel the sweep (idempotent)
//	GET    /v1/jobs/{digest}      the raw cache document for a finished job
//	GET    /v1/jobs/{digest}/span the job's trace span, while retained
//
// Jobs execute on worker slots that pull them from the lease table: the
// service's own in-process slots (Options.Jobs, none with
// Options.Workers) call it directly, and fleet worker processes use the
// work-distribution routes:
//
//	POST /v1/work/lease             pull one job under a TTL lease + fencing token
//	POST /v1/work/{digest}/heartbeat  extend the lease, ship a checkpoint, or release
//	POST /v1/work/{digest}/result     commit the outcome (fenced, at-most-once)
//
// A lease call on an empty queue is held until work arrives, and a status
// call with ?wait=1 until its sweep turns terminal, each for a bounded
// hold (leaseHold, 500 ms): an idle worker picks up new work at once, and
// a waiting client learns of its result at once, without polling.
//
// The telemetry endpoints (/metrics, /progress, /jobs) mount on the same
// listener via telemetry.Mount.
package service

import (
	"encoding/json"

	"dynamo/internal/runner"
	"dynamo/internal/telemetry"
)

// Job states, as reported in JobStatus.State. "queued" and "running" are
// transient; the rest are terminal.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
	JobExpired   = "expired"
)

// Sweep states, as reported in SweepStatus.State.
const (
	SweepQueued    = "queued"
	SweepRunning   = "running"
	SweepDone      = "done"
	SweepFailed    = "failed"
	SweepCancelled = "cancelled"
	SweepExpired   = "expired"
)

// SubmitRequest is the POST /v1/sweeps body: one sweep as a batch of wire
// requests. Schema is runner.WireSchema (zero is accepted and means "the
// current one"); each request may additionally carry its own schema field.
type SubmitRequest struct {
	Schema   int              `json:"schema,omitempty"`
	Requests []runner.Request `json:"requests"`
	// DeadlineSeconds, when positive, bounds the sweep's wall-clock: once
	// it elapses, still-queued jobs expire and in-flight ones are
	// interrupted at their next checkpoint boundary. Zero means no
	// deadline; negative or non-finite values are rejected ("bad-field").
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
}

// JobStatus is one job's standing inside a sweep. Digest is the request's
// canonical content digest — the key for GET /v1/jobs/{digest} once the
// job is done.
type JobStatus struct {
	Digest  string         `json:"digest"`
	Request runner.Request `json:"request"`
	State   string         `json:"state"`
	// Cached marks a job answered by the persistent store rather than
	// simulated for this sweep.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// SweepStatus is a point-in-time snapshot of one sweep: the response body
// of POST /v1/sweeps, GET /v1/sweeps/{id} and DELETE /v1/sweeps/{id}.
type SweepStatus struct {
	Schema int    `json:"schema"`
	ID     string `json:"id"`
	State  string `json:"state"`
	// Per-job counts over Jobs. Requests that collapsed to one digest
	// count once per submitted entry.
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	Expired   int `json:"expired,omitempty"`
	// Retries counts transient-failure re-executions across the whole
	// service (every sweep shares one runner, so retries are shared too).
	Retries uint64 `json:"retries,omitempty"`
	// ETASeconds extrapolates this sweep's remaining jobs from the
	// service-wide per-job completion rate (zero when idle or unknown).
	ETASeconds float64     `json:"eta_seconds,omitempty"`
	Jobs       []JobStatus `json:"jobs"`
}

// Terminal reports whether the sweep reached a terminal state. A
// just-cancelled (or just-expired) sweep is terminal even while its
// in-flight jobs wind down to their checkpoints.
func (s *SweepStatus) Terminal() bool {
	switch s.State {
	case SweepDone, SweepFailed, SweepCancelled, SweepExpired:
		return true
	}
	return false
}

// LeaseRequest is the POST /v1/work/lease body: a worker asking to pull
// one queued job under a TTL lease.
type LeaseRequest struct {
	Schema int `json:"schema,omitempty"`
	// Worker identifies the leaseholder (host:pid by convention); it keys
	// the fleet-size gauge and appears in lease telemetry.
	Worker string `json:"worker"`
	// TTLSeconds, when positive, requests a specific lease TTL; the server
	// clamps it to its configured bounds. Zero means the server default.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// LeaseGrant is the POST /v1/work/lease response when work is available
// (204 No Content otherwise): one job, its fencing token, and — when one
// exists — the checkpoint to resume from.
type LeaseGrant struct {
	Schema  int            `json:"schema"`
	Digest  string         `json:"digest"`
	Request runner.Request `json:"request"`
	// Fence is the monotone fencing token for this grant. Every heartbeat
	// and commit must carry it; a smaller (stale) token is rejected.
	Fence uint64 `json:"fence"`
	// Attempt counts grants of this job, 1-based: attempt 2 means a prior
	// lease was lost (expired or released) and this grant is a re-issue.
	Attempt         int   `json:"attempt"`
	ExpiresUnixNano int64 `json:"expires_unix_nano"`
	// CkptEvery is the server's checkpoint cadence (simulation events
	// between captures); zero asks the worker not to checkpoint.
	CkptEvery uint64 `json:"ckpt_every,omitempty"`
	// Checkpoint, when present, is the job's latest checkpoint document —
	// shipped by a prior leaseholder, or persisted before a server
	// restart; the worker resumes from it instead of event zero.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// HeartbeatRequest is the POST /v1/work/{digest}/heartbeat body: extend
// the lease, optionally shipping the job's latest checkpoint bytes, or —
// with Release — hand the job back (graceful drain).
type HeartbeatRequest struct {
	Schema int    `json:"schema,omitempty"`
	Worker string `json:"worker"`
	Fence  uint64 `json:"fence"`
	// Checkpoint, when present, is the job's latest checkpoint document;
	// the server keeps the newest shipped copy for re-grants and persists
	// it beside the result cache.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	// Release hands the job back to the queue without committing: the
	// lease ends, the shipped checkpoint (if any) seeds the next grant.
	Release bool `json:"release,omitempty"`
}

// HeartbeatReply acknowledges a heartbeat.
type HeartbeatReply struct {
	Schema          int   `json:"schema"`
	ExpiresUnixNano int64 `json:"expires_unix_nano,omitempty"`
	// Yield tells the worker to stop executing this job and release it
	// (the job was cancelled or preempted server-side): checkpoint, then
	// heartbeat once more with Release.
	Yield bool `json:"yield,omitempty"`
	// Released confirms a Release heartbeat: the lease is over.
	Released bool `json:"released,omitempty"`
}

// CommitRequest is the POST /v1/work/{digest}/result body: the job's
// outcome under the lease's fencing token. Exactly one of Entry or Error
// is set. Entry is the canonical cache document (runner.EncodeEntry
// bytes): the server decodes it, its runner persists the outcome exactly
// as a local run's, and its hash tells a byte-identical duplicate commit
// from a divergent one.
type CommitRequest struct {
	Schema int             `json:"schema,omitempty"`
	Worker string          `json:"worker"`
	Fence  uint64          `json:"fence"`
	Entry  json.RawMessage `json:"entry,omitempty"`
	// Error reports a failed execution; ErrorKind distinguishes transient
	// causes the server's retry policy understands ("panicked", "stalled")
	// from permanent ones (empty).
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
}

// CommitReply acknowledges a commit. Duplicate marks a byte-identical
// re-commit of an already-committed result (accepted idempotently).
type CommitReply struct {
	Schema    int  `json:"schema"`
	Committed bool `json:"committed"`
	Duplicate bool `json:"duplicate,omitempty"`
}

// WireError is the structured error every non-2xx response carries, under
// an {"error": ...} envelope. Kind is a stable machine-matchable cause:
// "schema", "unknown-workload", "unknown-policy", "bad-field",
// "not-found", "draining", "overloaded" or "bad-request"; Field and
// Value identify the offending request field on a validation failure.
type WireError struct {
	Message string `json:"message"`
	Kind    string `json:"kind,omitempty"`
	Field   string `json:"field,omitempty"`
	Value   string `json:"value,omitempty"`
}

// ErrorBody is the non-2xx response envelope.
type ErrorBody struct {
	Error WireError `json:"error"`
}

// Span aliases the telemetry job span served by /v1/jobs/{digest}/span.
type Span = telemetry.JobSpan
