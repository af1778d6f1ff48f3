package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynamo/internal/runner"
)

// heldStatus makes one held status call, as Client.WaitContext does.
func heldStatus(addr, id string) (*SweepStatus, error) {
	resp, err := http.Get("http://" + addr + "/v1/sweeps/" + id + "?wait=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("held status call: http %d", resp.StatusCode)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// TestHeldStatusReturnsPromptly: Wait's status call is held until the
// sweep settles, so a fleet job that commits while the call is held is
// reported on that same call, at once, not on a later poll.
func TestHeldStatusReturnsPromptly(t *testing.T) {
	svc, err := New(Options{CacheDir: t.TempDir(), Workers: true})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	asked := make(chan struct{})
	var once sync.Once
	count := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/sweeps/") {
				calls.Add(1)
				once.Do(func() { close(asked) })
			}
			h.ServeHTTP(w, r)
		})
	}
	srv, err := Serve("127.0.0.1:0", svc, count)
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	// The job runs only once the client's first status call has reached
	// the server.
	var finished atomic.Int64
	startWorker(t, srv, WorkerOptions{ID: "w", Execute: func(q runner.Request, x runner.ExecOptions) (*runner.Outcome, error) {
		select {
		case <-asked:
		case <-x.Interrupt:
		}
		out, err := runner.ExecuteLocal(q, runner.ExecOptions{})
		finished.Store(time.Now().UnixNano())
		return out, err
	}})

	c := Dial(srv.Addr())
	st, err := c.Submit(counterReq(611))
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(st.ID)
	reported := time.Now()
	if err != nil || st.State != SweepDone {
		t.Fatalf("sweep = %+v, %v", st, err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("Wait made %d status calls, want 1 held call", n)
	}
	if d := reported.Sub(time.Unix(0, finished.Load())); d > 100*time.Millisecond {
		t.Errorf("sweep reported done %v after its job finished, want within ~50ms", d)
	}
}

// TestHeldStatusEndsOnCancelAndDeadline: a held status call on a sweep
// that cannot run (no workers) returns the terminal state as soon as the
// sweep is cancelled or expires, not at the end of its hold.
func TestHeldStatusEndsOnCancelAndDeadline(t *testing.T) {
	svc, srv, c := startService(t, Options{CacheDir: t.TempDir(), Workers: true})
	type reply struct {
		st  *SweepStatus
		err error
		at  time.Time
	}
	held := func(id string) chan reply {
		got := make(chan reply, 1)
		go func() {
			st, err := heldStatus(srv.Addr(), id)
			got <- reply{st, err, time.Now()}
		}()
		return got
	}

	st, err := c.Submit(counterReq(621))
	if err != nil {
		t.Fatal(err)
	}
	got := held(st.ID)
	time.Sleep(50 * time.Millisecond) // the call is now held server-side
	cancelled := time.Now()
	if _, err := c.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil || r.st.State != SweepCancelled {
		t.Fatalf("held status across a cancel = %+v, %v; want cancelled", r.st, r.err)
	}
	if d := r.at.Sub(cancelled); d > 100*time.Millisecond {
		t.Errorf("held status answered %v after the cancel, want within ~50ms", d)
	}

	const deadline = 100 * time.Millisecond
	st, err = svc.SubmitDeadline([]runner.Request{counterReq(622)}, deadline)
	if err != nil {
		t.Fatal(err)
	}
	submitted := time.Now()
	r = <-held(st.ID)
	if r.err != nil || r.st.State != SweepExpired {
		t.Fatalf("held status across a deadline = %+v, %v; want expired", r.st, r.err)
	}
	if d := r.at.Sub(submitted); d > deadline+100*time.Millisecond {
		t.Errorf("held status answered %v after a %v deadline was set, want within ~50ms of it", d, deadline)
	}
}

// TestHeldStatusReturnsOnServerClose: Server.Close ends a held status
// call at once rather than after its hold, as it does a held lease call.
func TestHeldStatusReturnsOnServerClose(t *testing.T) {
	const prompt = leaseHold / 2
	_, srv, c := startService(t, Options{CacheDir: t.TempDir(), Workers: true})
	st, err := c.Submit(counterReq(631)) // no workers: it never runs
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := heldStatus(srv.Addr(), st.ID)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // the call is now held server-side
	start := time.Now()
	srv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("held status call ended with %v, want the sweep's standing", err)
		}
	case <-time.After(prompt):
		t.Error("held status call outlived Server.Close")
	}
	if d := time.Since(start); d > prompt {
		t.Errorf("Server.Close took %v with a held status call, want under %v", d, prompt)
	}
}

// TestWaitPacesAServerThatAnswersAtOnce: against a server that never
// holds a status call, Wait still spaces its calls at least Poll apart.
func TestWaitPacesAServerThatAnswersAtOnce(t *testing.T) {
	const running, poll = 5, 20 * time.Millisecond
	var (
		mu sync.Mutex
		at []time.Time
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("wait") != "1" {
			t.Errorf("status call %s does not ask to be held", r.URL)
		}
		mu.Lock()
		at = append(at, time.Now())
		n := len(at)
		mu.Unlock()
		st := &SweepStatus{Schema: runner.WireSchema, ID: "s1", State: SweepRunning}
		if n > running {
			st.State = SweepDone
		}
		writeJSON(w, http.StatusOK, st)
	}))
	defer ts.Close()

	c := Dial(ts.URL)
	c.Poll = poll
	start := time.Now()
	st, err := c.Wait("s1")
	elapsed := time.Since(start)
	if err != nil || st.State != SweepDone {
		t.Fatalf("Wait = %+v, %v", st, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(at) != running+1 {
		t.Fatalf("Wait made %d status calls, want %d", len(at), running+1)
	}
	if elapsed < running*poll {
		t.Errorf("Wait took %v over %d answered-at-once calls, want at least %v", elapsed, len(at), running*poll)
	}
	for i := 1; i < len(at); i++ {
		if gap := at[i].Sub(at[i-1]); gap < poll/2 {
			t.Errorf("status calls %d and %d came %v apart, want about Poll (%v)", i-1, i, gap, poll)
		}
	}
}

// BenchmarkRemoteJob is one remote job's round trip through the HTTP
// control plane: Client.Execute of a distinct tiny counter request —
// submit, held status call, result fetch — against a server whose one
// fleet worker, with one slot, leases, executes and commits it.
func BenchmarkRemoteJob(b *testing.B) {
	svc, err := New(Options{CacheDir: b.TempDir(), Workers: true})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	srv, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	w := NewWorker(WorkerOptions{Addr: srv.Addr(), ID: "bench", Slots: 1})
	w.Start()
	defer w.Drain()
	c := Dial(srv.Addr())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Execute(counterReq(int64(1_000_000+i)), runner.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
