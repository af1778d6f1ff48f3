package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dynamo/internal/machine"
)

// quick is a request small enough for unit tests.
func quick() Request {
	return Request{Workload: "tc", Policy: "all-near", Threads: 2, Scale: 0.05}
}

func TestDigestNormalization(t *testing.T) {
	zero := Request{Workload: "tc", Threads: 2, Scale: 0.05}
	full := Request{Workload: "tc", Policy: "all-near", Threads: 2, Seed: 1, Scale: 0.05}
	if zero.Digest() != full.Digest() {
		t.Error("defaulted request and explicit request have different digests")
	}
	base := full
	base.Variant = "base"
	if base.Digest() != full.Digest() {
		t.Error(`variant "base" not aliased to the default system`)
	}
	other := full
	other.Policy = "all-far"
	if other.Digest() == full.Digest() {
		t.Error("different policies share a digest")
	}
	counter := full
	counter.Counter = &CounterSpec{Ops: 10, Cells: 8}
	if counter.Digest() == full.Digest() {
		t.Error("counter microbenchmark shares the workload's digest")
	}
}

func TestSubmitDedupes(t *testing.T) {
	r := New(Options{Jobs: 2})
	t1 := r.Submit(quick())
	t2 := r.Submit(quick())
	if t1 != t2 {
		t.Fatal("identical requests did not coalesce into one task")
	}
	o1, err := t1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := t2.Wait()
	if o1 != o2 || o1.Result == nil {
		t.Fatal("coalesced tasks returned different outcomes")
	}
	st := r.Stats()
	if st.Requests != 2 || st.Submitted != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()

	cold := New(Options{Jobs: 1, CacheDir: dir})
	o1, err := cold.Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	if o1.Cached {
		t.Fatal("cold run reported Cached")
	}
	if st := cold.Stats(); st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("cold stats = %+v", st)
	}

	warm := New(Options{Jobs: 1, CacheDir: dir})
	o2, err := warm.Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !o2.Cached {
		t.Fatal("warm run did not hit the persistent store")
	}
	st := warm.Stats()
	if st.Simulated() != 0 || st.DiskHits != 1 {
		t.Fatalf("warm stats = %+v", st)
	}
	if st.Saved <= 0 {
		t.Fatalf("warm hit saved %v", st.Saved)
	}

	// The persisted result must round-trip exactly.
	j1, _ := json.Marshal(o1.Result)
	j2, _ := json.Marshal(o2.Result)
	if !bytes.Equal(j1, j2) {
		t.Fatal("cached result differs from the simulated one")
	}
}

func TestCorruptEntryEvicted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, quick().Digest()+".json")
	if err := os.WriteFile(path, []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := New(Options{Jobs: 1, CacheDir: dir})
	out, err := r.Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("corrupt entry served as a hit")
	}
	if st := r.Stats(); st.Evictions != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The re-simulated result replaces the corrupt file.
	if data, err := os.ReadFile(path); err != nil || !json.Valid(data) {
		t.Fatalf("cache entry not rewritten: err=%v", err)
	}
}

func TestSchemaInvalidation(t *testing.T) {
	dir := t.TempDir()
	r := New(Options{Jobs: 1, CacheDir: dir})
	if _, err := r.Run(quick()); err != nil {
		t.Fatal(err)
	}

	// Rewrite the entry under a future schema: it must be evicted, not
	// misread.
	path := filepath.Join(dir, quick().Digest()+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e.Schema = entrySchema + 1
	data, _ = json.Marshal(&e)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := New(Options{Jobs: 1, CacheDir: dir})
	out, err := r2.Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("old-schema entry served as a hit")
	}
	if st := r2.Stats(); st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMetaMismatchEvicted(t *testing.T) {
	dir := t.TempDir()
	r := New(Options{Jobs: 1, CacheDir: dir})
	if _, err := r.Run(quick()); err != nil {
		t.Fatal(err)
	}

	// Simulate a digest collision: the file exists under this digest but
	// describes a different request.
	path := filepath.Join(dir, quick().Digest()+".json")
	data, _ := os.ReadFile(path)
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e.Meta["policy"] = "all-far"
	data, _ = json.Marshal(&e)
	os.WriteFile(path, data, 0o644)

	r2 := New(Options{Jobs: 1, CacheDir: dir})
	out, err := r2.Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("mismatched entry served as a hit")
	}
	if st := r2.Stats(); st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestErrorsReported(t *testing.T) {
	r := New(Options{Jobs: 1})
	if _, err := r.Run(Request{Workload: "missing", Threads: 2}); err == nil {
		t.Fatal("unknown workload ran")
	}
	if _, err := r.Run(Request{Workload: "tc", Policy: "missing", Threads: 2, Scale: 0.05}); err == nil {
		t.Fatal("unknown policy ran")
	}
	if err := r.Wait(); err == nil {
		t.Fatal("Wait did not surface the failure")
	} else if !strings.Contains(err.Error(), "runner:") {
		t.Fatalf("error not wrapped: %v", err)
	}
	if st := r.Stats(); st.Errors != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLogCountsEveryFinishedJob: the log's [done/total] prefix counts a
// job in any terminal state, so a sweep whose last job is cancelled still
// ends at [total/total].
func TestLogCountsEveryFinishedJob(t *testing.T) {
	var log bytes.Buffer
	exec := func(Request, ExecOptions) (*Outcome, error) { return nil, errors.New("boom") }
	cancelled := make(chan struct{})
	r := New(Options{Jobs: 1, Log: &log, Execute: exec, Interrupt: cancelled})
	if _, err := r.Run(quick()); err == nil {
		t.Fatal("a failing job reported no error")
	}
	close(cancelled)
	task := r.Submit(Request{Workload: "histogram", Threads: 2, Scale: 0.05})
	if _, err := task.Wait(); !errors.Is(err, machine.ErrInterrupted) {
		t.Fatalf("cancelled job err = %v, want ErrInterrupted", err)
	}
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if last := strings.TrimSpace(lines[len(lines)-1]); !strings.HasPrefix(last, "[2/2] interrupted ") {
		t.Errorf("last log line %q, want [2/2] interrupted; log:\n%s", last, log.String())
	}
}

// TestLogSerializesJobs: jobs finish on their own goroutines, and the
// runner serializes its log writes, so a multi-job sweep can log into a
// writer that is not safe for concurrent use and get whole lines. Run it
// under the race detector.
func TestLogSerializesJobs(t *testing.T) {
	var log bytes.Buffer
	r := New(Options{Jobs: 4, Log: &log})
	const jobs = 8
	var tasks []*Task
	for i := 0; i < jobs; i++ {
		tasks = append(tasks, r.Submit(Request{Policy: "all-near", Threads: 2,
			Counter: &CounterSpec{Ops: 16 + i, Cells: 8}}))
	}
	for _, task := range tasks {
		if _, err := task.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != jobs {
		t.Fatalf("%d log lines for %d jobs:\n%s", len(lines), jobs, log.String())
	}
	whole := regexp.MustCompile(`^\s*\[\d+/\d+\] ran `)
	for _, line := range lines {
		if !whole.MatchString(line) {
			t.Errorf("log line %q is not one whole progress line", line)
		}
	}
}

func TestCounterAndProfileRequests(t *testing.T) {
	r := New(Options{Jobs: 2})
	out, err := r.Run(Request{Policy: "all-near", Threads: 2,
		Counter: &CounterSpec{Ops: 16, Cells: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.AMOs == 0 {
		t.Fatal("counter run performed no AMOs")
	}

	out, err = r.Run(Request{Workload: "tc", Threads: 2, Scale: 0.05, ProfileTopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if out.Hot == nil || len(out.Hot.Lines) == 0 {
		t.Fatal("profiled run returned no hot lines")
	}

	out, err = r.Run(Request{Workload: "tc", Threads: 2, Scale: 0.05, Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Obs == nil {
		t.Fatal("observed run returned no observability report")
	}
}

// TestEntryBytesHealsLostCacheFile: after a successful run, EntryBytes
// re-materializes the canonical cache document from memory even when the
// on-disk copy was deleted (crash, injected fault), and re-persists it.
func TestEntryBytesHealsLostCacheFile(t *testing.T) {
	dir := t.TempDir()
	q := quick().normalize()
	digest := q.Digest()
	r := New(Options{Jobs: 1, CacheDir: dir})
	if _, err := r.Run(q); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, digest+".json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}

	got, err := r.EntryBytes(digest)
	if err != nil {
		t.Fatalf("EntryBytes after cache loss: %v", err)
	}
	var wd, gd struct {
		Result    json.RawMessage `json:"result"`
		Request   json.RawMessage `json:"request"`
		Schema    int             `json:"schema"`
		ElapsedNS int64           `json:"elapsed_ns"`
	}
	if err := json.Unmarshal(want, &wd); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &gd); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wd.Result, gd.Result) || !bytes.Equal(wd.Request, gd.Request) || wd.Schema != gd.Schema {
		t.Fatal("healed document differs from the original cache entry")
	}
	// And the heal re-persisted the document.
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("heal did not re-persist the cache entry: %v", err)
	}

	if _, err := r.EntryBytes("nope"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unknown digest err = %v, want os.ErrNotExist", err)
	}
}

// TestLoadersUnderConcurrency: several goroutines submit interleaved
// disk hits, misses, duplicates and one corrupt entry to a runner with
// Jobs: 2 over a pre-filled cache directory. Every task gets its
// request's outcome (hits from the store, the rest simulated), the
// counters add up, and once Wait returns the loaders and job goroutines
// all exit: the goroutine count falls back to where it started.
func TestLoadersUnderConcurrency(t *testing.T) {
	settle := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want at most %d", what, runtime.NumGoroutine(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	start := runtime.NumGoroutine()
	req := func(seed int64) Request {
		return Request{Counter: &CounterSpec{Ops: 20, Cells: 1}, Threads: 2, Seed: seed}
	}
	var hits, misses []Request
	for i := int64(0); i < 12; i++ {
		hits = append(hits, req(1+i))
	}
	for i := int64(0); i < 6; i++ {
		misses = append(misses, req(101+i))
	}
	corrupt := req(201)

	// Reference outcomes, and a cache holding the hits and the entry
	// about to be corrupted.
	want := map[string]uint64{}
	ref := New(Options{Jobs: 2})
	for _, q := range append(append([]Request{corrupt}, hits...), misses...) {
		out, err := ref.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q.Digest()] = uint64(out.Result.Cycles)
	}
	dir := t.TempDir()
	fill := New(Options{Jobs: 2, CacheDir: dir})
	for _, q := range append([]Request{corrupt}, hits...) {
		fill.Submit(q)
	}
	if err := fill.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, corrupt.Digest()+".json"), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	settle(start, "after the fill")

	r := New(Options{Jobs: 2, CacheDir: dir})
	const submitters = 4
	var mixed []Request
	for i := range hits {
		mixed = append(mixed, hits[i], misses[i%len(misses)])
		if i%4 == 0 {
			mixed = append(mixed, corrupt)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, submitters*len(mixed))
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each submitter starts at its own offset, so every request
			// arrives several times in a different order.
			tasks := make([]*Task, len(mixed))
			for i := range mixed {
				tasks[i] = r.Submit(mixed[(i+g*5)%len(mixed)])
			}
			for i, task := range tasks {
				q := mixed[(i+g*5)%len(mixed)]
				out, err := task.Wait()
				switch {
				case err != nil:
					errs <- fmt.Errorf("%s: %v", q, err)
				case uint64(out.Result.Cycles) != want[q.Digest()]:
					errs <- fmt.Errorf("%s: %d cycles, want %d", q, out.Result.Cycles, want[q.Digest()])
				case out.Cached != slices.ContainsFunc(hits, func(h Request) bool { return h.Digest() == q.Digest() }):
					errs <- fmt.Errorf("%s: Cached = %v", q, out.Cached)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	distinct := uint64(len(hits) + len(misses) + 1)
	st := r.Stats()
	if st.Requests != submitters*uint64(len(mixed)) || st.Submitted != distinct ||
		st.Hits != st.Requests-distinct || st.DiskHits != uint64(len(hits)) ||
		st.Misses != uint64(len(misses))+1 || st.Evictions != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v, want %d requests of %d jobs: %d disk hits, %d simulated, 1 eviction",
			st, submitters*len(mixed), distinct, len(hits), len(misses)+1)
	}
	settle(start, "after Wait")
}
