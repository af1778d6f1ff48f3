package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dynamo/internal/checkpoint"
	"dynamo/internal/machine"
	"dynamo/internal/telemetry"
)

// long returns a request big enough (~277k events) to cross several
// checkpoint strides, so a yield lands mid-run.
func long() Request {
	return Request{Workload: "tc", Policy: "all-near", Threads: 2, Scale: 1.0}
}

// TestPreemptResumesByteIdentical is the runner half of preemption: a job
// whose per-task interrupt fires after its first checkpoint — the way a
// yielded lease stops its execution — stops with machine.ErrInterrupted,
// leaves a persisted checkpoint and no quarantine marker, and resubmitting
// the same request resumes it to a result byte-identical to an
// uninterrupted run.
func TestPreemptResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	q := long().normalize()
	digest := q.Digest()

	fresh, err := ExecuteLocal(q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := json.Marshal(fresh.Result)

	// Yield from inside the checkpoint sink, so the interrupt lands
	// deterministically after the first persisted checkpoint.
	yield := make(chan struct{})
	var once sync.Once
	exec := func(q Request, x ExecOptions) (*Outcome, error) {
		if sink := x.Sink; sink != nil {
			x.Sink = func(ck *checkpoint.Checkpoint) {
				sink(ck)
				once.Do(func() { close(yield) })
			}
		}
		return ExecuteLocal(q, x)
	}

	tel := telemetry.NewSweep(telemetry.SweepOptions{})
	r := New(Options{Jobs: 1, CacheDir: dir, CkptEvery: 50000, Resume: true, Telemetry: tel, Execute: exec})
	task := r.SubmitInterruptible(q, yield)
	if _, err := task.Wait(); !errors.Is(err, machine.ErrInterrupted) {
		t.Fatalf("yielded task err = %v, want ErrInterrupted", err)
	}
	st := r.Stats()
	if st.Interrupted != 1 || st.Errors != 0 || st.Misses != 0 {
		t.Fatalf("stats after yield = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, digest+".ckpt.json")); err != nil {
		t.Fatalf("yielded job left no checkpoint: %v", err)
	}
	// A yield is not a failure: no quarantine marker, no Failed entry.
	if failures := r.Failed(); len(failures) != 0 {
		t.Fatalf("yielded job listed as failed: %v", failures)
	}
	if _, err := os.Stat(filepath.Join(dir, digest+".failed.json")); !os.IsNotExist(err) {
		t.Fatal("yielded job quarantined")
	}

	out, err := r.Run(q)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	st = r.Stats()
	if st.Resumed != 1 || st.Misses != 1 {
		t.Fatalf("stats after resume = %+v", st)
	}
	if got, _ := json.Marshal(out.Result); !bytes.Equal(got, base) {
		t.Fatal("yielded-and-resumed result differs from the uninterrupted run")
	}
	// Completed job: checkpoint cleaned up, gauges balanced, counters up.
	if _, err := os.Stat(filepath.Join(dir, digest+".ckpt.json")); !os.IsNotExist(err) {
		t.Fatal("completed job left its checkpoint behind")
	}
	p := tel.Progress()
	if p.Queued != 0 || p.Running != 0 {
		t.Fatalf("gauges not drained after yield+resume: %d queued, %d running", p.Queued, p.Running)
	}
	if p.InterruptedJobs != 1 || p.Resumed != 1 {
		t.Fatalf("telemetry interrupted/resumed = %d/%d, want 1/1", p.InterruptedJobs, p.Resumed)
	}
}
