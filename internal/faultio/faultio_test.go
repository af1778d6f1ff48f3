package faultio

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dynamo/internal/telemetry"
)

func TestOSWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.json")
	fs := OS{}
	if err := fs.WriteFileAtomic(dir, path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFileAtomic(dir, path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(path)
	if err != nil || string(data) != "v2" {
		t.Fatalf("ReadFile = %q, %v; want v2", data, err)
	}
	// No temp litter after success.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries, want 1", len(ents))
	}
}

func TestInjectorDeterministic(t *testing.T) {
	run := func() map[string]uint64 {
		in := New(Options{Seed: 42, ENOSPCPermille: 300, TornPermille: 300, CorruptPermille: 300})
		fs := in.WrapFS(OS{})
		dir := t.TempDir()
		for i := 0; i < 200; i++ {
			path := filepath.Join(dir, "f.json")
			fs.WriteFileAtomic(dir, path, []byte(`{"some":"document"}`))
			fs.ReadFile(path)
		}
		return in.Counts()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults injected at 30% rates over 400 ops")
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("schedule not deterministic: %s = %d vs %d", k, v, b[k])
		}
	}
}

func TestInjectorENOSPCTyped(t *testing.T) {
	in := New(Options{Seed: 1, ENOSPCPermille: 1000})
	fs := in.WrapFS(OS{})
	dir := t.TempDir()
	err := fs.WriteFileAtomic(dir, filepath.Join(dir, "x"), []byte("data"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
}

func TestInjectorTornWrite(t *testing.T) {
	in := New(Options{Seed: 1, TornPermille: 1000})
	fs := in.WrapFS(OS{})
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	full := []byte("a complete json document")
	if err := fs.WriteFileAtomic(dir, path, full); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= len(full) {
		t.Fatalf("torn write persisted %d bytes, want < %d", len(data), len(full))
	}
}

func TestInjectorBudget(t *testing.T) {
	in := New(Options{Seed: 7, Budget: 3, ENOSPCPermille: 1000})
	fs := in.WrapFS(OS{})
	dir := t.TempDir()
	fails := 0
	for i := 0; i < 50; i++ {
		if err := fs.WriteFileAtomic(dir, filepath.Join(dir, "x"), []byte("d")); err != nil {
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("budget 3 produced %d failures", fails)
	}
	if got := in.Injected(); got != 3 {
		t.Fatalf("Injected() = %d, want 3", got)
	}
}

func TestNilInjectorTransparent(t *testing.T) {
	var in *Injector
	fs := in.WrapFS(OS{})
	dir := t.TempDir()
	if err := fs.WriteFileAtomic(dir, filepath.Join(dir, "x"), []byte("d")); err != nil {
		t.Fatal(err)
	}
	h := in.WrapHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("nil injector perturbed the handler: %v %v", resp, err)
	}
	resp.Body.Close()
}

func TestWrapHandlerDropAndDup(t *testing.T) {
	// Atomic: the client can see a duplicated request's connection drop
	// before the handler that served it has returned.
	var served atomic.Int32
	base := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		io.WriteString(w, "ok")
	})
	// Drop: connection aborts, handler never runs.
	in := New(Options{Seed: 3, DropPermille: 1000})
	srv := httptest.NewServer(in.WrapHandler(base))
	if _, err := http.Get(srv.URL); err == nil {
		t.Fatal("dropped response reached the client")
	}
	srv.Close()
	if n := served.Load(); n != 0 {
		t.Fatalf("drop ran the handler %d times", n)
	}
	// Dup: handler runs (side effects land), response still lost.
	served.Store(0)
	in = New(Options{Seed: 3, DupPermille: 1000, Budget: 1})
	srv = httptest.NewServer(in.WrapHandler(base))
	defer srv.Close()
	if _, err := http.Get(srv.URL); err == nil {
		t.Fatal("duplicated response reached the client first try")
	}
	// Budget spent: the retry goes through, observing the duplicate.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n := served.Load(); n != 2 {
		t.Fatalf("handler ran %d times, want 2 (dup + clean retry)", n)
	}
}

func TestWrapHandlerDelayBounded(t *testing.T) {
	in := New(Options{Seed: 5, DelayPermille: 1000, MaxDelay: 10 * time.Millisecond, Budget: 4})
	srv := httptest.NewServer(in.WrapHandler(http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })))
	defer srv.Close()
	start := time.Now()
	for i := 0; i < 4; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("4 delayed responses took %s", d)
	}
	if in.Counts()[KindDelay] == 0 {
		t.Fatal("no delays recorded")
	}
}

// TestRegisterRendersInjections pins the dynamo_faultio_injected_total
// text. Register renders the injector's own tallies, so injections made
// before it count as well as those after.
func TestRegisterRendersInjections(t *testing.T) {
	in := New(Options{Seed: 1, TornPermille: 1000, CorruptPermille: 1000})
	fs := in.WrapFS(OS{})
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	inject := func() {
		if err := fs.WriteFileAtomic(dir, path, []byte("a complete json document")); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	inject()
	reg := telemetry.NewRegistry()
	in.Register(reg)
	inject()
	if err := fs.WriteFileAtomic(dir, path, []byte("another document")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP dynamo_faultio_injected_total Deterministically injected control-plane faults.
# TYPE dynamo_faultio_injected_total counter
dynamo_faultio_injected_total{plane="disk",kind="enospc"} 0
dynamo_faultio_injected_total{plane="disk",kind="torn"} 3
dynamo_faultio_injected_total{plane="disk",kind="corrupt"} 2
dynamo_faultio_injected_total{plane="net",kind="delay"} 0
dynamo_faultio_injected_total{plane="net",kind="drop"} 0
dynamo_faultio_injected_total{plane="net",kind="dup"} 0
`
	if got := buf.String(); got != want {
		t.Errorf("rendered injections:\n%s\nwant:\n%s", got, want)
	}
}
