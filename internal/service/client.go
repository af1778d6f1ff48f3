package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"syscall"
	"time"

	"dynamo/internal/core"
	"dynamo/internal/machine"
	"dynamo/internal/runner"
	"dynamo/internal/workload"
)

// ErrWaitTimeout marks a Wait (or Execute) that ran out of its deadline
// before the sweep turned terminal. The sweep keeps running server-side;
// only the caller stopped watching.
var ErrWaitTimeout = errors.New("service: wait deadline exceeded")

// errAbandoned reports a remote job whose caller interrupted the wait.
var errAbandoned = fmt.Errorf("service: remote job abandoned: %w", machine.ErrInterrupted)

// Client talks to a sweep service. The zero-value fields of Dial's result
// are tuned for a local server; all are exported for overriding.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the transport (http.DefaultClient when nil).
	HTTP *http.Client
	// Retries bounds per-call retries: transport errors from a server
	// mid-restart (refused, reset or dropped connections), 429-overloaded
	// and 503-draining responses. Any other failure is not retried.
	// Every endpoint is idempotent — submissions dedupe by content digest
	// — so re-sending a request whose fate is unknown is safe.
	Retries int
	// Backoff is the first retry's delay; each further retry doubles it,
	// jittered into [d/2, d] so a fleet of rejected clients does not
	// re-stampede in phase, and capped at MaxBackoff.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Poll is the status-poll interval for Wait and Execute.
	Poll time.Duration
	// Deadline, when positive, bounds every Wait and Execute call
	// (ErrWaitTimeout past it) and is stamped on submitted sweeps as the
	// wire deadline_seconds, so the server abandons work the caller will
	// never collect.
	Deadline time.Duration
	// Resubmits bounds Execute's self-healing resubmissions when a
	// result document was lost to a crash or storage fault (default 3).
	Resubmits int

	// jitter draws the random half of a backoff delay: jitter(n) returns
	// a value in [0, n). It defaults to the process-global rand.Int63n; a
	// test swaps in a seeded source so backoff schedules are reproducible
	// without depending on wall-clock randomness.
	jitter func(n int64) int64
}

// Dial builds a client for addr ("host:port", scheme optional).
func Dial(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		Base:       strings.TrimRight(addr, "/"),
		Retries:    5,
		Backoff:    100 * time.Millisecond,
		MaxBackoff: 2 * time.Second,
		Poll:       25 * time.Millisecond,
		Resubmits:  3,
	}
}

// retryable reports whether a transport error is worth retrying: the
// signatures of a server that is still binding, restarting, or shutting
// down under the caller (refused, reset, or a keep-alive connection the
// server closed as the request was written).
func retryable(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// retryStatus reports whether an HTTP status says "come back later"
// rather than "you are wrong": 429 is the bounded admission queue
// pushing back, 503 a draining server about to restart.
func retryStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// kindErr maps a WireError.Kind back to its sentinel, so client-side
// errors.Is works across the wire: a rejected workload name matches
// workload.ErrUnknown whether validation ran locally or remotely.
func kindErr(kind string) error {
	switch kind {
	case "unknown-workload":
		return workload.ErrUnknown
	case "unknown-policy":
		return core.ErrUnknownPolicy
	case "schema":
		return runner.ErrWireSchema
	case "bad-field":
		return runner.ErrBadField
	case "not-found":
		return ErrNotFound
	case "draining":
		return ErrDraining
	case "overloaded":
		return ErrOverloaded
	case "lease-expired":
		return ErrLeaseExpired
	case "stale-commit":
		return ErrStaleCommit
	}
	return nil
}

// delay returns the jittered backoff before retry number attempt
// (0-based): Backoff doubled per retry, capped at MaxBackoff, then drawn
// uniformly from [d/2, d].
func (c *Client) delay(attempt int) time.Duration {
	base := c.Backoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := c.MaxBackoff
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base << attempt
	if d <= 0 || d > max {
		d = max
	}
	draw := c.jitter
	if draw == nil {
		draw = rand.Int63n
	}
	return d/2 + time.Duration(draw(int64(d/2)+1))
}

// sleepCtx pauses for d, returning false early when ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// do performs one call under ctx. When out is a *[]byte the raw body is
// returned; otherwise the body is decoded into out (nil discards it).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("service: encoding %s %s: %w", method, path, err)
		}
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	var resp *http.Response
	var data []byte
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.Base+path, bytes.NewReader(payload))
		if err != nil {
			return fmt.Errorf("service: %s %s: %w", method, path, err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err = hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("service: %s %s: %w", method, path, ctx.Err())
			}
			if attempt >= c.Retries || !retryable(err) {
				return fmt.Errorf("service: %s %s: %w", method, path, err)
			}
			if !sleepCtx(ctx, c.delay(attempt)) {
				return fmt.Errorf("service: %s %s: %w", method, path, ctx.Err())
			}
			continue
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("service: reading %s %s: %w", method, path, ctx.Err())
			}
			if attempt >= c.Retries || !retryable(err) {
				return fmt.Errorf("service: reading %s %s: %w", method, path, err)
			}
			if !sleepCtx(ctx, c.delay(attempt)) {
				return fmt.Errorf("service: %s %s: %w", method, path, ctx.Err())
			}
			continue
		}
		if retryStatus(resp.StatusCode) && attempt < c.Retries {
			if !sleepCtx(ctx, c.delay(attempt)) {
				return fmt.Errorf("service: %s %s: %w", method, path, ctx.Err())
			}
			continue
		}
		break
	}
	if resp.StatusCode/100 != 2 {
		var eb ErrorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error.Message != "" {
			if base := kindErr(eb.Error.Kind); base != nil {
				return fmt.Errorf("service: http %d: %s: %w", resp.StatusCode, eb.Error.Message, base)
			}
			return fmt.Errorf("service: http %d: %s", resp.StatusCode, eb.Error.Message)
		}
		return fmt.Errorf("service: %s %s: http %d", method, path, resp.StatusCode)
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*out = data
		return nil
	default:
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("service: decoding %s %s: %w", method, path, err)
		}
		return nil
	}
}

// Submit sends one sweep and returns its initial status. The client's
// Deadline, when set, rides along as the sweep's wire deadline.
func (c *Client) Submit(reqs ...runner.Request) (*SweepStatus, error) {
	return c.SubmitContext(context.Background(), reqs...)
}

// SubmitContext is Submit bounded by ctx.
func (c *Client) SubmitContext(ctx context.Context, reqs ...runner.Request) (*SweepStatus, error) {
	body := SubmitRequest{Schema: runner.WireSchema, Requests: reqs}
	if c.Deadline > 0 {
		body.DeadlineSeconds = c.Deadline.Seconds()
	}
	var st SweepStatus
	if err := c.do(ctx, http.MethodPost, "/v1/sweeps", body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Status fetches a sweep's current standing.
func (c *Client) Status(id string) (*SweepStatus, error) {
	return c.StatusContext(context.Background(), id)
}

// StatusContext is Status bounded by ctx.
func (c *Client) StatusContext(ctx context.Context, id string) (*SweepStatus, error) {
	var st SweepStatus
	if err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel cancels a sweep (idempotent) and returns its status.
func (c *Client) Cancel(id string) (*SweepStatus, error) {
	return c.CancelContext(context.Background(), id)
}

// CancelContext is Cancel bounded by ctx.
func (c *Client) CancelContext(ctx context.Context, id string) (*SweepStatus, error) {
	var st SweepStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/sweeps/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls a sweep until it reaches a terminal state, bounded by the
// client's Deadline when one is set: past it, Wait returns a typed
// ErrWaitTimeout instead of polling a stalled service forever.
func (c *Client) Wait(id string) (*SweepStatus, error) {
	ctx := context.Background()
	if c.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Deadline)
		defer cancel()
	}
	return c.WaitContext(ctx, id)
}

// WaitContext polls a sweep until it turns terminal or ctx ends
// (ErrWaitTimeout).
func (c *Client) WaitContext(ctx context.Context, id string) (*SweepStatus, error) {
	for {
		st, err := c.StatusContext(ctx, id)
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("%w: sweep %s: %v", ErrWaitTimeout, id, ctx.Err())
			}
			return nil, err
		}
		if st.Terminal() {
			return st, nil
		}
		poll := c.Poll
		if poll <= 0 {
			poll = 25 * time.Millisecond
		}
		if !sleepCtx(ctx, poll) {
			return nil, fmt.Errorf("%w: sweep %s: %v", ErrWaitTimeout, id, ctx.Err())
		}
	}
}

// ResultBytes fetches a finished job's raw cache document — the exact
// bytes of the server runner's cache entry.
func (c *Client) ResultBytes(digest string) ([]byte, error) {
	return c.ResultBytesContext(context.Background(), digest)
}

// ResultBytesContext is ResultBytes bounded by ctx.
func (c *Client) ResultBytesContext(ctx context.Context, digest string) ([]byte, error) {
	var data []byte
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+digest, nil, &data); err != nil {
		return nil, err
	}
	return data, nil
}

// Span fetches a finished job's trace span.
func (c *Client) Span(digest string) (*Span, error) {
	var sp Span
	if err := c.do(context.Background(), http.MethodGet, "/v1/jobs/"+digest+"/span", nil, &sp); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Execute runs one request remotely and blocks for its outcome. Its shape
// is runner.Options.Execute's, so a local runner keeps its pool, dedupe,
// stats and telemetry while every simulation happens on the server, which
// owns the job's checkpoints: of x, only Interrupt is honoured. Closing it
// aborts the remote wait promptly (between poll sleeps, not after one),
// best-effort cancels the sweep server-side so the fleet stops burning
// cycles on work nobody will collect, and reports an error wrapping
// machine.ErrInterrupted — what the runner's cancellation classification
// expects.
//
// Execute self-heals across whole-sweep loss: when the server crashed
// between admitting the sweep and persisting its result — the sweep id
// vanished, or the job finished but its result document was lost or
// corrupted — the request is resubmitted (bounded by Resubmits).
// Submissions dedupe by content digest, so a resubmission is free when
// the result actually survived.
func (c *Client) Execute(q runner.Request, x runner.ExecOptions) (*runner.Outcome, error) {
	select {
	case <-x.Interrupt:
		return nil, errAbandoned
	default:
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-x.Interrupt:
			cancel()
		case <-ctx.Done():
		}
	}()
	var lastErr error
	for attempt := 0; attempt <= max(c.Resubmits, 0); attempt++ {
		out, retryAgain, err := c.executeOnce(ctx, q)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, errAbandoned
		}
		if !retryAgain {
			break
		}
	}
	return nil, lastErr
}

// executeOnce submits, waits, and fetches one request's result. The
// middle return reports whether a resubmission could heal the failure.
func (c *Client) executeOnce(ctx context.Context, q runner.Request) (*runner.Outcome, bool, error) {
	st, err := c.SubmitContext(ctx, q)
	if err != nil {
		return nil, false, err
	}
	id := st.ID
	wctx := ctx
	if c.Deadline > 0 {
		var cancel context.CancelFunc
		wctx, cancel = context.WithTimeout(ctx, c.Deadline)
		defer cancel()
	}
	if st, err = c.WaitContext(wctx, id); err != nil {
		if ctx.Err() != nil {
			// The caller abandoned the job mid-wait: tell the server so the
			// work cancels instead of running to completion unobserved.
			cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			c.CancelContext(cctx, id)
			cancel()
			return nil, false, err
		}
		// A sweep id the server no longer knows means it restarted before
		// persisting the sweep document; resubmitting recreates the work.
		return nil, errors.Is(err, ErrNotFound), err
	}
	if len(st.Jobs) != 1 {
		return nil, false, fmt.Errorf("service: sweep %s: expected 1 job, got %d", st.ID, len(st.Jobs))
	}
	j := st.Jobs[0]
	switch j.State {
	case JobDone:
		data, err := c.ResultBytesContext(ctx, j.Digest)
		if err != nil {
			// Done without a readable document: the result file was lost
			// to a crash or storage fault. A resubmission re-runs it.
			return nil, errors.Is(err, ErrNotFound), err
		}
		out, _, derr := runner.DecodeEntry(data)
		if derr != nil {
			return nil, true, derr
		}
		return out, false, nil
	case JobFailed:
		return nil, false, fmt.Errorf("service: remote job %s failed: %s", j.Digest, j.Error)
	case JobCancelled:
		return nil, false, fmt.Errorf("service: remote job %s: %w", j.Digest, machine.ErrInterrupted)
	case JobExpired:
		return nil, false, fmt.Errorf("service: remote job %s: %w (sweep deadline passed)", j.Digest, ErrWaitTimeout)
	}
	return nil, false, fmt.Errorf("service: job %s ended in state %q", j.Digest, j.State)
}

// Lease pulls one job from the server's work queue under a TTL lease
// (the server default when ttl is zero). The server holds the call open
// until work arrives, for a bounded hold; a nil grant with a nil error
// means none arrived — the worker's cue to ask again.
func (c *Client) Lease(ctx context.Context, worker string, ttl time.Duration) (*LeaseGrant, error) {
	body := LeaseRequest{Schema: runner.WireSchema, Worker: worker}
	if ttl > 0 {
		body.TTLSeconds = ttl.Seconds()
	}
	var data []byte
	if err := c.do(ctx, http.MethodPost, "/v1/work/lease", body, &data); err != nil {
		return nil, err
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, nil // 204: nothing to do
	}
	var g LeaseGrant
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("service: decoding lease grant: %w", err)
	}
	return &g, nil
}

// Heartbeat extends a lease, optionally shipping the job's latest
// checkpoint document, or — with release — hands the job back.
func (c *Client) Heartbeat(ctx context.Context, digest, worker string, fence uint64, ckpt []byte, release bool) (*HeartbeatReply, error) {
	body := HeartbeatRequest{
		Schema: runner.WireSchema, Worker: worker, Fence: fence,
		Checkpoint: ckpt, Release: release,
	}
	var hb HeartbeatReply
	if err := c.do(ctx, http.MethodPost, "/v1/work/"+digest+"/heartbeat", body, &hb); err != nil {
		return nil, err
	}
	return &hb, nil
}

// Commit settles a leased job: entry is the canonical cache document
// (runner.EncodeEntry bytes) on success, errMsg (plus a transient
// errKind, "panicked" or "stalled") on failure. Safe to re-send on an
// unknown transport fate — the server acknowledges byte-identical
// duplicates idempotently.
func (c *Client) Commit(ctx context.Context, digest, worker string, fence uint64, entry []byte, errMsg, errKind string) (*CommitReply, error) {
	body := CommitRequest{
		Schema: runner.WireSchema, Worker: worker, Fence: fence,
		Entry: entry, Error: errMsg, ErrorKind: errKind,
	}
	var cr CommitReply
	if err := c.do(ctx, http.MethodPost, "/v1/work/"+digest+"/result", body, &cr); err != nil {
		return nil, err
	}
	return &cr, nil
}
