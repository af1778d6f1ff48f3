package runner

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"dynamo/internal/checkpoint"
	"dynamo/internal/core"
	"dynamo/internal/machine"
)

// arenaTarget is the job the arena tests run fresh and on a used arena.
var arenaTarget = Request{Workload: "histogram", Policy: "dynamo-reuse-pn", Threads: 8, Scale: 0.05, ProfileTopK: 4}

// runEncoded executes q with checkpoints every `every` events, on arena a
// (nil: a new machine), and returns its outcome, its cache entry and the
// bytes of every checkpoint it captured.
func runEncoded(t *testing.T, q Request, a *machine.Arena, every uint64) (*Outcome, []byte, [][]byte) {
	t.Helper()
	var ckpts [][]byte
	out, err := ExecuteLocal(q, ExecOptions{CkptEvery: every, Arena: a, Sink: func(ck *checkpoint.Checkpoint) {
		var buf bytes.Buffer
		if err := checkpoint.Write(&buf, ck); err != nil {
			t.Fatal(err)
		}
		ckpts = append(ckpts, buf.Bytes())
	}})
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	entry, err := EncodeEntry(q, out, 0)
	if err != nil {
		t.Fatal(err)
	}
	return out, entry, ckpts
}

// TestArenaReuseIsExact is the differential test of recycled storage: a
// job run on an arena that has served other jobs — other workloads, a
// Fig. 11 AMT geometry, a design-space policy, a checked chaos run, an
// interrupted job and a failed one — gives the same cache entry and the
// same checkpoints at the same events as on a new machine, and a result
// returned before the arena served those jobs still encodes to the same
// bytes.
func TestArenaReuseIsExact(t *testing.T) {
	const every = 4000
	_, want, wantCkpts := runEncoded(t, arenaTarget, nil, every)
	if len(wantCkpts) < 2 {
		t.Fatalf("the target captured %d checkpoints; the test needs several", len(wantCkpts))
	}

	arena := new(machine.Arena)
	kept, keptEntry, _ := runEncoded(t, arenaTarget, arena, every)
	stopped := make(chan struct{})
	close(stopped)
	others := []struct {
		q       Request
		x       ExecOptions
		wantErr error
	}{
		{q: Request{Workload: "bfs", Policy: "all-near", Threads: 8, Scale: 0.05}},
		{q: Request{Workload: "spmv", Policy: "dynamo-reuse-pn", Threads: 8, Scale: 0.05, Variant: "amt-e64-w2-c32"}},
		{q: Request{Workload: "radixsort", Threads: 8, Scale: 0.05, DSE: core.DecisionString(core.PracticalDesignSpace()[1])}},
		{q: Request{Workload: "histogram", Policy: "dynamo-metric", Threads: 8, Scale: 0.05, Variant: "amobuf-1",
			Check: true, ChaosSeed: 5, ChaosLevel: 2}},
		{q: Request{Workload: "pagerank", Policy: "dynamo-reuse-un", Threads: 8, Scale: 0.05},
			x: ExecOptions{Interrupt: stopped}, wantErr: machine.ErrInterrupted},
		{q: Request{Workload: "tc", Policy: "unique-near", Threads: 8, Scale: 0.05, Variant: "maxevents-3000"},
			wantErr: machine.ErrTimeout},
	}
	for _, o := range others {
		o.x.Arena = arena
		_, err := ExecuteLocal(o.q, o.x)
		if o.wantErr == nil && err != nil || o.wantErr != nil && !errors.Is(err, o.wantErr) {
			t.Fatalf("%s on the arena: err %v, want %v", o.q, err, o.wantErr)
		}
	}

	for round := range 2 {
		_, got, gotCkpts := runEncoded(t, arenaTarget, arena, every)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: the entry of a job on a used arena differs from a new machine's", round)
		}
		if len(gotCkpts) != len(wantCkpts) {
			t.Fatalf("round %d: %d checkpoints on a used arena, %d on a new machine", round, len(gotCkpts), len(wantCkpts))
		}
		for i := range wantCkpts {
			if !bytes.Equal(gotCkpts[i], wantCkpts[i]) {
				t.Fatalf("round %d: checkpoint %d differs between a used arena and a new machine", round, i)
			}
		}
	}
	again, err := EncodeEntry(arenaTarget, kept, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, keptEntry) || !bytes.Equal(keptEntry, want) {
		t.Fatal("a result returned before its arena served more jobs no longer encodes to its bytes")
	}
}

// TestRunnerSlotsNeverShareAnArena: with two slots, every job gets an
// arena no running job holds, and the jobs share at most two. Under the
// race detector a shared arena would also show as a data race.
func TestRunnerSlotsNeverShareAnArena(t *testing.T) {
	var (
		mu   sync.Mutex
		busy = map[*machine.Arena]bool{}
	)
	r := New(Options{Jobs: 2, Execute: func(q Request, x ExecOptions) (*Outcome, error) {
		mu.Lock()
		if x.Arena == nil || busy[x.Arena] {
			t.Errorf("%s got arena %p, nil or held by a running job", q, x.Arena)
		}
		busy[x.Arena] = true
		mu.Unlock()
		defer func() {
			mu.Lock()
			busy[x.Arena] = false
			mu.Unlock()
		}()
		return ExecuteLocal(q, x)
	}})
	defer r.Close()
	var tasks []*Task
	for _, wl := range []string{"histogram", "bfs", "radixsort", "spmv", "cc", "kcore"} {
		for _, p := range []string{"all-near", "dynamo-reuse-pn"} {
			tasks = append(tasks, r.Submit(Request{Workload: wl, Policy: p, Threads: 4, Scale: 0.05}))
		}
	}
	fresh := New(Options{Jobs: 1})
	defer fresh.Close()
	for _, task := range tasks {
		out, err := task.Wait()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(task.req)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := EncodeEntry(task.req, out, 0)
		ref, _ := EncodeEntry(task.req, want, 0)
		if !bytes.Equal(got, ref) {
			t.Errorf("%s: a pooled slot's result differs from a fresh runner's", task.req)
		}
	}
	if n := len(busy); n > 2 {
		t.Errorf("two slots used %d arenas", n)
	}
}

// TestCkptDueGatesOnlyPeriodicCapture: without a gate a run captures at
// every checkpoint boundary; a gate is asked at each of those boundaries
// and captures only when it says so, and it moves no simulated byte. An
// interrupted run captures its final checkpoint whatever the gate says.
func TestCkptDueGatesOnlyPeriodicCapture(t *testing.T) {
	const every = 4000
	run := func(q Request, x ExecOptions) (captures int, entry []byte, err error) {
		x.CkptEvery = every
		x.Sink = func(*checkpoint.Checkpoint) { captures++ }
		out, err := ExecuteLocal(q, x)
		if err == nil {
			entry, err = EncodeEntry(q, out, 0)
		}
		return captures, entry, err
	}
	all, want, err := run(arenaTarget, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var asked int
	none, got, err := run(arenaTarget, ExecOptions{CkptDue: func() bool { asked++; return false }})
	if err != nil {
		t.Fatal(err)
	}
	if all < 2 || asked != all || none != 0 || !bytes.Equal(got, want) {
		t.Fatalf("ungated run captured %d; gated run asked %d times and captured %d (same entry: %v)",
			all, asked, none, bytes.Equal(got, want))
	}
	asked = 0
	odd, _, err := run(arenaTarget, ExecOptions{CkptDue: func() bool { asked++; return asked%2 == 1 }})
	if err != nil || odd != (all+1)/2 {
		t.Fatalf("a gate open at every other boundary captured %d of %d (%v)", odd, all, err)
	}
	stopped := make(chan struct{})
	close(stopped)
	long := Request{Workload: "pagerank", Policy: "dynamo-reuse-un", Threads: 8, Scale: 0.05}
	final, _, err := run(long, ExecOptions{CkptDue: func() bool { return false }, Interrupt: stopped})
	if !errors.Is(err, machine.ErrInterrupted) || final != 1 {
		t.Fatalf("an interrupted run behind a closed gate captured %d checkpoints (%v), want its final one", final, err)
	}
}

// BenchmarkExecuteLocal runs one small fixed job a iteration: on a new
// machine each time (fresh), or on one arena that every iteration's
// machine hands its storage back to (arena), as a runner slot does.
func BenchmarkExecuteLocal(b *testing.B) {
	q := Request{Workload: "histogram", Policy: "dynamo-reuse-pn", Threads: 8, Scale: 0.05}
	for _, c := range []struct {
		name  string
		arena *machine.Arena
	}{{"fresh", nil}, {"arena", new(machine.Arena)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := ExecuteLocal(q, ExecOptions{Arena: c.arena}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
