package runner

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dynamo/internal/faultio"
	"dynamo/internal/machine"
)

// observedRequest is the request testdata/observed-entry.json was written
// for, by EncodeEntry before the stats.Group decoder and the digest
// writer were rewritten: its entry carries Obs, Hot and Detail.
var observedRequest = Request{Workload: "tc", Policy: "dynamo-reuse-pn", Threads: 2, Scale: 0.05,
	Observe: true, ProfileTopK: 4}

// TestEntryWrittenEarlierStillHits: an entry persisted by an earlier
// build decodes, re-encodes byte-identically and is served from a cache
// directory as a disk hit with no eviction.
func TestEntryWrittenEarlierStillHits(t *testing.T) {
	data, err := os.ReadFile("testdata/observed-entry.json")
	if err != nil {
		t.Fatal(err)
	}
	out, elapsed, err := DecodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Hot == nil || out.Result.Obs == nil || out.Result.Detail == nil {
		t.Fatalf("entry decoded without its reports: hot=%v obs=%v detail=%v",
			out.Hot != nil, out.Result.Obs != nil, out.Result.Detail != nil)
	}
	if n := len(out.Result.Detail.Names()); n != 23 {
		t.Fatalf("Detail decoded %d counters, want 23", n)
	}
	again, err := EncodeEntry(observedRequest, out, elapsed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("re-encoded entry differs from the one written earlier")
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, observedRequest.Digest()+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(Options{Jobs: 1, CacheDir: dir, Execute: func(Request, ExecOptions) (*Outcome, error) {
		return nil, errors.New("a cached request must not execute")
	}})
	got, err := r.Run(observedRequest)
	if err != nil || !got.Cached {
		t.Fatalf("Run = %+v, %v; want a disk hit", got, err)
	}
	if st := r.Stats(); st.DiskHits != 1 || st.Evictions != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want one disk hit and no eviction", st)
	}
}

// renameCounter counts the Rename calls that reach the file plane.
type renameCounter struct {
	faultio.FS
	renames atomic.Int64
}

func (c *renameCounter) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.FS.Rename(oldpath, newpath)
}

// TestMissWithoutMarkerClaimsNothing: a job with no quarantine marker on
// disk — every first run — probes for one and renames nothing.
func TestMissWithoutMarkerClaimsNothing(t *testing.T) {
	dir := t.TempDir()
	fs := &renameCounter{FS: faultio.OS{}}
	r := New(Options{Jobs: 1, CacheDir: dir, FS: fs, Execute: func(Request, ExecOptions) (*Outcome, error) {
		return &Outcome{Result: &machine.Result{}}, nil
	}})
	if _, err := r.Run(quick()); err != nil {
		t.Fatal(err)
	}
	if n := fs.renames.Load(); n != 0 {
		t.Fatalf("a miss with no marker made %d Rename calls, want 0", n)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, quick().Digest()+".json"); len(names) != 1 || names[0] != want {
		t.Fatalf("cache directory holds %v, want only %s", names, want)
	}
}

var decodeSink *Outcome

func BenchmarkDecodeEntry(b *testing.B) {
	q := quick().normalize()
	out, err := ExecuteLocal(q, ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	data, err := EncodeEntry(q, out, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if decodeSink, _, err = DecodeEntry(data); err != nil {
			b.Fatal(err)
		}
	}
}
