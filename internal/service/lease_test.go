package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"dynamo/internal/checkpoint"
	"dynamo/internal/runner"
)

// leaseFor leases until a grant arrives (submissions park asynchronously,
// so a held lease call can end empty before the job reaches the table).
func leaseFor(t *testing.T, c *Client, worker string, ttl time.Duration) *LeaseGrant {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		g, err := c.Lease(context.Background(), worker, ttl)
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if g != nil {
			return g
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("timed out waiting for a lease grant")
	return nil
}

// scrapeMetric fetches /metrics and returns the sample line for one
// series (name plus exact label string, e.g. `{outcome="fenced"}`).
func scrapeMetric(t *testing.T, addr, name, labels string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	prefix := name + labels + " "
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, prefix) {
			return strings.TrimSpace(strings.TrimPrefix(line, prefix))
		}
	}
	return ""
}

// captureCkpt runs req locally and returns its first emitted checkpoint
// document (the wire form a worker ships) plus the full result.
func captureCkpt(t *testing.T, req runner.Request, every uint64) ([]byte, *runner.Outcome) {
	t.Helper()
	var ck []byte
	out, err := runner.ExecuteLocal(req, runner.ExecOptions{
		CkptEvery: every,
		Sink: func(c *checkpoint.Checkpoint) {
			if ck != nil {
				return
			}
			data, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			ck = append(data, '\n')
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("no checkpoint emitted; raise the job size or lower every")
	}
	return ck, out
}

// TestLeaseHeartbeatAfterExpiry: a worker that misses its heartbeats is
// presumed dead — the lease is revoked by the expiry scanner, a late
// heartbeat gets a typed ErrLeaseExpired (410 on the wire), and the job
// is already back in the queue for the next worker.
func TestLeaseHeartbeatAfterExpiry(t *testing.T) {
	_, srv, c := startService(t, Options{
		CacheDir: t.TempDir(), Jobs: 1, Workers: true, LeaseTTL: 100 * time.Millisecond,
	})
	if _, err := c.Submit(counterReq(301)); err != nil {
		t.Fatal(err)
	}
	g := leaseFor(t, c, "silent-worker", 0)

	// Miss every heartbeat: sleeping a full TTL plus scanner slack between
	// attempts guarantees the lease expires even if an attempt lands just
	// before the scanner tick and renews it once.
	deadline := time.Now().Add(5 * time.Second)
	var hbErr error
	for time.Now().Before(deadline) {
		time.Sleep(150 * time.Millisecond)
		_, hbErr = c.Heartbeat(context.Background(), g.Digest, "silent-worker", g.Fence, nil, false)
		if hbErr != nil {
			break
		}
	}
	if !errors.Is(hbErr, ErrLeaseExpired) {
		t.Fatalf("heartbeat after expiry err = %v, want ErrLeaseExpired", hbErr)
	}

	// The wire form is HTTP 410 Gone with the lease-expired kind.
	body, _ := json.Marshal(HeartbeatRequest{Schema: runner.WireSchema, Worker: "silent-worker", Fence: g.Fence})
	resp, err := http.Post("http://"+srv.Addr()+"/v1/work/"+g.Digest+"/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGone || eb.Error.Kind != "lease-expired" {
		t.Errorf("expired heartbeat on the wire = %d %+v", resp.StatusCode, eb)
	}

	// The job requeued: the next worker gets it under a larger fence.
	g2 := leaseFor(t, c, "healthy-worker", 0)
	if g2.Digest != g.Digest || g2.Fence <= g.Fence || g2.Attempt != g.Attempt+1 {
		t.Errorf("re-grant = %+v after %+v", g2, g)
	}
	if expired := scrapeMetric(t, srv.Addr(), "dynamo_work_leases_total", `{event="expired"}`); expired != "1" {
		t.Errorf(`dynamo_work_leases_total{event="expired"} = %q, want "1"`, expired)
	}
}

// TestCommitIdempotenceAndFencing: commits are at-most-once per digest —
// a byte-identical duplicate is acknowledged idempotently, a divergent
// commit under any fence is rejected with ErrStaleCommit (409) and
// counted as fenced.
func TestCommitIdempotenceAndFencing(t *testing.T) {
	req := counterReq(311)
	_, srv, c := startService(t, Options{
		CacheDir: t.TempDir(), Jobs: 1, Workers: true, LeaseTTL: time.Minute,
	})
	st, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	g := leaseFor(t, c, "w1", 0)

	out, err := runner.ExecuteLocal(g.Request, runner.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entry, err := runner.EncodeEntry(g.Request, out, 42*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cr, err := c.Commit(ctx, g.Digest, "w1", g.Fence, entry, "", "")
	if err != nil || !cr.Committed || cr.Duplicate {
		t.Fatalf("first commit = %+v, %v", cr, err)
	}

	// The same bytes again — a retry after a lost response — are
	// acknowledged, flagged as the duplicate they are, and change nothing.
	cr2, err := c.Commit(ctx, g.Digest, "w1", g.Fence, entry, "", "")
	if err != nil || !cr2.Committed || !cr2.Duplicate {
		t.Fatalf("duplicate commit = %+v, %v", cr2, err)
	}

	// Divergent bytes for the same job — a different elapsed is enough —
	// are a correctness violation, not a retry: typed 409, counted.
	other, err := runner.EncodeEntry(g.Request, out, 43*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(ctx, g.Digest, "w1", g.Fence, other, "", ""); !errors.Is(err, ErrStaleCommit) {
		t.Fatalf("divergent commit err = %v, want ErrStaleCommit", err)
	}
	if fenced := scrapeMetric(t, srv.Addr(), "dynamo_work_commits_total", `{outcome="fenced"}`); fenced != "1" {
		t.Errorf(`dynamo_work_commits_total{outcome="fenced"} = %q, want "1"`, fenced)
	}
	if dup := scrapeMetric(t, srv.Addr(), "dynamo_work_commits_total", `{outcome="duplicate"}`); dup != "1" {
		t.Errorf(`dynamo_work_commits_total{outcome="duplicate"} = %q, want "1"`, dup)
	}

	// The committed sweep completes with the committed result's bytes.
	if st, err = c.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != SweepDone || st.Done != 1 {
		t.Fatalf("sweep after commit = %+v", st)
	}

	// On the wire a stale commit is 409 Conflict with the typed kind.
	body, _ := json.Marshal(CommitRequest{Schema: runner.WireSchema, Worker: "w2", Fence: g.Fence + 7, Entry: other})
	resp, err := http.Post("http://"+srv.Addr()+"/v1/work/"+g.Digest+"/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict || eb.Error.Kind != "stale-commit" {
		t.Errorf("stale commit on the wire = %d %+v", resp.StatusCode, eb)
	}
}

// TestZombieLeaseExpiryResumesFromCheckpoint is the SIGKILL drill at the
// protocol level: a worker leases a job, ships one checkpoint, then goes
// silent. The lease expires, the re-grant carries the shipped checkpoint,
// a healthy worker resumes from it and commits — and the zombie's late
// commit is fenced. The final result is byte-identical to a fresh
// uninterrupted local run.
func TestZombieLeaseExpiryResumesFromCheckpoint(t *testing.T) {
	req := slowReq(321)
	ck, localOut := captureCkpt(t, req, 5000)
	wantJSON, err := json.Marshal(localOut.Result)
	if err != nil {
		t.Fatal(err)
	}

	cache := t.TempDir()
	_, srv, c := startService(t, Options{
		CacheDir: cache, Jobs: 1, Workers: true,
		LeaseTTL: 100 * time.Millisecond, CkptEvery: 5000,
	})
	st, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// The zombie takes the lease, ships one checkpoint, then goes silent.
	gz := leaseFor(t, c, "zombie", 0)
	if gz.CkptEvery != 5000 {
		t.Errorf("grant ckpt cadence = %d, want 5000", gz.CkptEvery)
	}
	if _, err := c.Heartbeat(ctx, gz.Digest, "zombie", gz.Fence, ck, false); err != nil {
		t.Fatal(err)
	}

	// Lease expiry re-grants the job with the shipped checkpoint attached,
	// so the healthy worker resumes instead of restarting from event zero.
	// The healthy worker asks for a TTL long enough to run without
	// heartbeating (this test drives the protocol by hand).
	gh := leaseFor(t, c, "healthy", time.Minute)
	if gh.Fence <= gz.Fence {
		t.Fatalf("re-grant fence %d not past zombie fence %d", gh.Fence, gz.Fence)
	}
	// JSON framing may re-encode the document in flight; what must survive
	// is the checkpoint itself — same identity, same event position.
	shipped, err := checkpoint.Read(bytes.NewReader(ck))
	if err != nil {
		t.Fatal(err)
	}
	resume, err := checkpoint.Read(bytes.NewReader(gh.Checkpoint))
	if err != nil {
		t.Fatalf("re-grant checkpoint unreadable: %v", err)
	}
	if err := resume.Compatible(gh.Digest); err != nil {
		t.Fatalf("re-grant checkpoint incompatible: %v", err)
	}
	if resume.Event != shipped.Event {
		t.Fatalf("re-grant checkpoint at event %d, shipped event %d", resume.Event, shipped.Event)
	}
	out, err := runner.ExecuteLocal(gh.Request, runner.ExecOptions{Resume: resume})
	if err != nil {
		t.Fatal(err)
	}
	entry, err := runner.EncodeEntry(gh.Request, out, 17*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cr, err := c.Commit(ctx, gh.Digest, "healthy", gh.Fence, entry, "", ""); err != nil || !cr.Committed {
		t.Fatalf("healthy commit = %+v, %v", cr, err)
	}

	// The zombie wakes up and tries to commit its own full run under the
	// revoked fence: fenced, not accepted, not a duplicate.
	zout, err := runner.ExecuteLocal(gz.Request, runner.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	zentry, err := runner.EncodeEntry(gz.Request, zout, 99*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(ctx, gz.Digest, "zombie", gz.Fence, zentry, "", ""); !errors.Is(err, ErrStaleCommit) {
		t.Fatalf("zombie commit err = %v, want ErrStaleCommit", err)
	}

	// The sweep completes and the resumed result is byte-identical to the
	// uninterrupted local run.
	if st, err = c.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != SweepDone || st.Done != 1 {
		t.Fatalf("sweep = %+v", st)
	}
	remote, err := c.ResultBytes(gh.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, remote), wantJSON) {
		t.Error("resumed fleet result differs from an uninterrupted local run")
	}
	if expired := scrapeMetric(t, srv.Addr(), "dynamo_work_leases_total", `{event="expired"}`); expired != "1" {
		t.Errorf(`dynamo_work_leases_total{event="expired"} = %q, want "1"`, expired)
	}
	if shipped := scrapeMetric(t, srv.Addr(), "dynamo_work_checkpoints_total", ""); shipped != "1" {
		t.Errorf(`dynamo_work_checkpoints_total = %q, want "1"`, shipped)
	}
	// Every grant drained through exactly one lease-end event.
	if held := scrapeMetric(t, srv.Addr(), "dynamo_work_leases", ""); held != "0" {
		t.Errorf("dynamo_work_leases = %q after settling, want 0", held)
	}
	if fleet := scrapeMetric(t, srv.Addr(), "dynamo_work_workers", ""); fleet != "0" {
		t.Errorf("dynamo_work_workers = %q after settling, want 0", fleet)
	}
}

// TestShippedCheckpointSurvivesRestart: a checkpoint shipped over a
// heartbeat reaches the cache through Options.FS, and a service restarted
// on that cache grants it. The resume counts once — from the runner that
// loaded the checkpoint, not again from the first grant.
func TestShippedCheckpointSurvivesRestart(t *testing.T) {
	req := slowReq(351)
	ck, _ := captureCkpt(t, req, 5000)
	shipped, err := checkpoint.Read(bytes.NewReader(ck))
	if err != nil {
		t.Fatal(err)
	}
	cache := t.TempDir()
	fs := newCountingFS()
	o := Options{CacheDir: cache, Jobs: 1, Workers: true, LeaseTTL: time.Minute, CkptEvery: 5000, FS: fs}
	svc, srv, c := startService(t, o)
	if _, err := c.Submit(req); err != nil {
		t.Fatal(err)
	}
	g := leaseFor(t, c, "w", 0)
	if _, err := c.Heartbeat(context.Background(), g.Digest, "w", g.Fence, ck, false); err != nil {
		t.Fatal(err)
	}
	if _, writes := fs.counts(g.Digest + ".ckpt.json"); writes != 1 {
		t.Errorf("%d writes of the shipped checkpoint through Options.FS, want 1", writes)
	}
	srv.Close()
	svc.Close()

	o.Resume = true
	_, srv2, c2 := startService(t, o)
	g2 := leaseFor(t, c2, "w", 0)
	resume, err := checkpoint.Read(bytes.NewReader(g2.Checkpoint))
	if err != nil {
		t.Fatalf("grant after restart carries no usable checkpoint: %v", err)
	}
	if g2.Digest != g.Digest || resume.Event != shipped.Event {
		t.Errorf("grant after restart = %s at event %d, want %s at event %d",
			short(g2.Digest), resume.Event, short(g.Digest), shipped.Event)
	}
	if n := scrapeMetric(t, srv2.Addr(), "dynamo_sweep_resumed_total", ""); n != "1" {
		t.Errorf("dynamo_sweep_resumed_total = %q, want \"1\"", n)
	}
}

// TestWorkValidation covers the work API's rejection edges: missing
// worker id, unknown digests, malformed checkpoints, and malformed
// entries (which must NOT burn the lease).
func TestWorkValidation(t *testing.T) {
	ctx := context.Background()

	_, _, cw := startService(t, Options{CacheDir: t.TempDir(), Jobs: 1, Workers: true})
	if _, err := cw.Lease(ctx, "", 0); !errors.Is(err, runner.ErrBadField) {
		t.Errorf("anonymous lease err = %v, want ErrBadField", err)
	}
	// An empty queue is not an error: after the hold, nil grant, nil
	// error (204).
	if g, err := cw.Lease(ctx, "w", 0); g != nil || err != nil {
		t.Errorf("empty-queue lease = %+v, %v", g, err)
	}
	// Unknown digests never held a lease.
	bogus := strings.Repeat("cd", 32)
	if _, err := cw.Heartbeat(ctx, bogus, "w", 1, nil, false); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("unknown-digest heartbeat err = %v, want ErrLeaseExpired", err)
	}
	if _, err := cw.Commit(ctx, bogus, "w", 1, nil, "boom", ""); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("unknown-digest commit err = %v, want ErrLeaseExpired", err)
	}

	// A live lease survives malformed payloads: garbage checkpoints and
	// garbage entries are the caller's bug (400), not a fencing event.
	if _, err := cw.Submit(counterReq(331)); err != nil {
		t.Fatal(err)
	}
	g := leaseFor(t, cw, "w", 0)
	if _, err := cw.Heartbeat(ctx, g.Digest, "w", g.Fence, []byte(`{"not":"a checkpoint"}`), false); !errors.Is(err, runner.ErrBadField) {
		t.Errorf("garbage checkpoint err = %v, want ErrBadField", err)
	}
	if _, err := cw.Commit(ctx, g.Digest, "w", g.Fence, []byte(`{"not":"an entry"}`), "", ""); !errors.Is(err, runner.ErrBadField) {
		t.Errorf("garbage entry err = %v, want ErrBadField", err)
	}
	out, err := runner.ExecuteLocal(g.Request, runner.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entry, err := runner.EncodeEntry(g.Request, out, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cr, err := cw.Commit(ctx, g.Digest, "w", g.Fence, entry, "", ""); err != nil || !cr.Committed {
		t.Fatalf("commit after rejected payloads = %+v, %v (the lease should have stayed live)", cr, err)
	}
}

// TestErrorCommitFeedsRetryPolicy: a worker-reported transient failure
// flows through the server's existing retry machinery — the job requeues
// and a later clean commit completes the sweep.
func TestErrorCommitFeedsRetryPolicy(t *testing.T) {
	_, _, c := startService(t, Options{
		CacheDir: t.TempDir(), Jobs: 1, Retries: 2, Workers: true, LeaseTTL: time.Minute,
	})
	st, err := c.Submit(counterReq(341))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// First attempt reports a stall — a transient kind the retry policy
	// re-enqueues rather than quarantines.
	g1 := leaseFor(t, c, "flaky", 0)
	if cr, err := c.Commit(ctx, g1.Digest, "flaky", g1.Fence, nil, "machine stalled at event 7", "stalled"); err != nil || !cr.Committed {
		t.Fatalf("error commit = %+v, %v", cr, err)
	}

	// The retry comes back through the queue under a fresh fence.
	g2 := leaseFor(t, c, "steady", 0)
	if g2.Digest != g1.Digest || g2.Fence <= g1.Fence {
		t.Fatalf("retry grant = %+v after %+v", g2, g1)
	}
	out, err := runner.ExecuteLocal(g2.Request, runner.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entry, err := runner.EncodeEntry(g2.Request, out, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cr, err := c.Commit(ctx, g2.Digest, "steady", g2.Fence, entry, "", ""); err != nil || !cr.Committed {
		t.Fatalf("retry commit = %+v, %v", cr, err)
	}
	if st, err = c.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != SweepDone || st.Done != 1 {
		t.Fatalf("sweep after retry = %+v", st)
	}
}

// TestSettledItemsDropPayload: a settled job's item keeps only what the
// duplicate-commit check reads, so a long-running service does not hold
// the outcome, request or checkpoint of every job it has run.
func TestSettledItemsDropPayload(t *testing.T) {
	svc, err := New(Options{CacheDir: t.TempDir(), Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for sweep := 0; sweep < 3; sweep++ {
		reqs := make([]runner.Request, 10)
		for i := range reqs {
			reqs[i] = counterReq(int64(541 + 10*sweep + i))
		}
		if _, err := svc.Submit(reqs); err != nil {
			t.Fatal(err)
		}
		svc.Wait()
	}
	svc.lt.mu.Lock()
	defer svc.lt.mu.Unlock()
	if n := len(svc.lt.items); n != 30 {
		t.Fatalf("lease table holds %d items, want 30", n)
	}
	for digest, it := range svc.lt.items {
		if it.state != workDone {
			t.Errorf("%s: state %d, want done", short(digest), it.state)
		}
		if it.out != nil || !reflect.ValueOf(it.req).IsZero() || it.sink != nil || it.ckpt != nil {
			t.Errorf("%s: settled item keeps outcome %v, request %v, sink %v or %d checkpoint bytes",
				short(digest), it.out != nil, !reflect.ValueOf(it.req).IsZero(), it.sink != nil, len(it.ckpt))
		}
	}
}

// withMeta returns entry with its meta's key set to value: the document a
// build that disagrees on that key would write for the same job.
func withMeta(t *testing.T, entry []byte, key, value string) []byte {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(entry, &doc); err != nil {
		t.Fatal(err)
	}
	var meta map[string]string
	if err := json.Unmarshal(doc["meta"], &meta); err != nil {
		t.Fatal(err)
	}
	meta[key] = value
	raw, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	doc["meta"] = raw
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestCommitRefusesAnotherRequestsEntry: a commit whose entry answers
// another request — the job under another ConfigSchema, as a worker built
// at another schema would write it, or another workload's result — is
// refused like a malformed entry (400, ErrBadField) and fences nothing.
// The lease stays live, then expires, and the job requeues for a worker
// whose entry answers it.
func TestCommitRefusesAnotherRequestsEntry(t *testing.T) {
	ctx := context.Background()
	svc, _, c := startService(t, Options{
		CacheDir: t.TempDir(), Jobs: 1, Workers: true, LeaseTTL: 200 * time.Millisecond,
	})
	st, err := c.Submit(counterReq(361))
	if err != nil {
		t.Fatal(err)
	}
	g := leaseFor(t, c, "skewed", 0)
	out, err := runner.ExecuteLocal(g.Request, runner.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := runner.EncodeEntry(g.Request, out, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	other, err := runner.EncodeEntry(runner.Request{Workload: "tc", Threads: 2, Scale: 0.05}, out, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name  string
		entry []byte
	}{
		{"schema 2", withMeta(t, good, "schema", "2")},
		{"another workload", other},
	} {
		if _, err := c.Commit(ctx, g.Digest, "skewed", g.Fence, bad.entry, "", ""); !errors.Is(err, runner.ErrBadField) {
			t.Errorf("%s: commit err = %v, want ErrBadField", bad.name, err)
		}
		if _, err := c.Heartbeat(ctx, g.Digest, "skewed", g.Fence, nil, false); err != nil {
			t.Errorf("%s: heartbeat after the refused commit: %v (the lease should stay live)", bad.name, err)
		}
	}
	if n := svc.lt.counts.CommitFenced.Load() + svc.lt.counts.CommitOK.Load(); n != 0 {
		t.Errorf("refused commits counted %d fenced or committed, want 0", n)
	}

	// The skewed worker stops beating; its lease expires and the job goes
	// to the next worker under a larger fence.
	g2 := leaseFor(t, c, "matched", 0)
	if g2.Digest != g.Digest || g2.Fence <= g.Fence {
		t.Fatalf("re-grant = %+v after %+v", g2, g)
	}
	if cr, err := c.Commit(ctx, g2.Digest, "matched", g2.Fence, good, "", ""); err != nil || !cr.Committed {
		t.Fatalf("matching commit = %+v, %v", cr, err)
	}
	if st, err = c.Wait(st.ID); err != nil || st.Jobs[0].State != JobDone {
		t.Fatalf("sweep after the matching commit = %+v, %v", st, err)
	}
}
