// Package faultio injects deterministic storage and network faults into
// the control plane's I/O seams, one layer up from internal/chaos (which
// perturbs the simulated protocol): the same seeded-splitmix64 discipline,
// applied to the failure modes a real fleet sees — full disks, torn
// renames, corrupt reads, and flaky HTTP transports.
//
// Two planes are wrapped:
//
//   - Disk: the FS interface is the runner cache's (and the sweep
//     service's) file plane. Injector.WrapFS returns an FS that fails
//     writes with ENOSPC, persists torn (truncated) documents, and
//     truncates reads — every corruption a crash-mid-write or a bad
//     sector produces, compressed into a repeatable seed.
//   - Network: Injector.WrapHandler wraps an http.Handler with delayed,
//     dropped, and duplicated responses. A "dropped" response aborts the
//     connection after the handler may or may not have run, which is
//     exactly the client-visible shape of a server killed mid-request.
//
// Every injection decrements a shared budget (Options.Budget), so a CI
// soak under nonzero rates still converges: once the budget is spent the
// wrapped planes are transparent. Injections are counted per class and
// exported through Register on a telemetry registry as
// dynamo_faultio_injected_total{plane,kind}.
package faultio

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"

	"dynamo/internal/telemetry"
)

// FS is the file plane beneath the persistent caches: everything the
// runner's store and the service's sweep journal do to disk, narrowed to
// the four operations that matter for crash-consistency. The OS
// implementation is the real, fsync-hardened filesystem; Injector.WrapFS
// layers deterministic faults over any implementation.
type FS interface {
	// ReadFile returns the named file's contents.
	ReadFile(path string) ([]byte, error)
	// WriteFileAtomic durably writes data to path via a temp file in dir
	// plus a rename: a crash at any instant leaves either the old file or
	// the complete new one, never a partial or empty rename target.
	WriteFileAtomic(dir, path string, data []byte) error
	// Rename atomically renames a file (quarantine-marker claims).
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(path string) error
}

// OS is the real filesystem. Its WriteFileAtomic closes the
// crash-durability hole of a bare temp-write-rename: the temp file is
// fsynced before the rename (so the rename can never land ahead of the
// data it names) and the directory is fsynced after it (so the rename
// itself survives a crash), which is the ext4/xfs-portable recipe for
// "rename as commit".
type OS struct{}

// ReadFile implements FS.
func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// WriteFileAtomic implements FS with full fsync discipline.
func (OS) WriteFileAtomic(dir, path string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	// Flush file data before the rename publishes the name: without this
	// a crash after the rename but before writeback can surface an
	// empty-but-renamed entry.
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	// Persist the rename itself (the directory entry). Best-effort: some
	// filesystems reject directory fsync, and the data above is already
	// safe relative to the rename.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(path string) error { return os.Remove(path) }

// Fault classes, as telemetry label values and Counts keys.
const (
	KindENOSPC  = "enospc"  // write fails with syscall.ENOSPC
	KindTorn    = "torn"    // write persists a truncated document
	KindCorrupt = "corrupt" // read returns truncated bytes
	KindDelay   = "delay"   // response delayed up to MaxDelay
	KindDrop    = "drop"    // connection aborted before the handler runs
	KindDup     = "dup"     // handler runs, then the connection aborts —
	// the client retries a request that already took effect
)

// Options configures an Injector. All rates are permille (0-1000) drawn
// per operation from one seeded stream per plane.
type Options struct {
	// Seed selects the deterministic fault schedule; the same seed over
	// the same single-threaded operation sequence injects identically.
	Seed int64
	// Budget bounds total injections across all classes; once spent the
	// injector is transparent. Zero or negative means unlimited.
	Budget int

	// Disk-plane rates.
	ENOSPCPermille  int
	TornPermille    int
	CorruptPermille int

	// Network-plane rates.
	DelayPermille int
	DropPermille  int
	DupPermille   int
	// MaxDelay bounds an injected response delay (default 25ms).
	MaxDelay time.Duration
}

// Level returns a canned fault mix: level 1 is mild (sub-percent rates),
// each further level roughly doubles every rate. The soak gate runs
// level 2 with a bounded budget.
func Level(seed int64, level, budget int) Options {
	if level < 1 {
		level = 1
	}
	mul := 1 << (level - 1)
	clamp := func(p int) int {
		if p > 500 {
			return 500
		}
		return p
	}
	return Options{
		Seed:            seed,
		Budget:          budget,
		ENOSPCPermille:  clamp(8 * mul),
		TornPermille:    clamp(8 * mul),
		CorruptPermille: clamp(8 * mul),
		DelayPermille:   clamp(20 * mul),
		DropPermille:    clamp(10 * mul),
		DupPermille:     clamp(6 * mul),
		MaxDelay:        25 * time.Millisecond,
	}
}

// stream is a splitmix64 generator, one per plane so disk traffic does
// not perturb the network schedule (same construction as internal/chaos).
type stream struct{ state uint64 }

func newStream(seed int64, salt uint64) *stream {
	return &stream{state: uint64(seed)*0x9e3779b97f4a7c15 + salt}
}

func (s *stream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *stream) below(n uint64) uint64 { return s.next() % n }

// Injector draws per-operation fault decisions from seeded streams and
// tallies what it injected. The zero value is unusable; build with New.
// A nil *Injector is a valid, permanently transparent injector.
type Injector struct {
	opts Options

	mu     sync.Mutex
	disk   *stream
	net    *stream
	budget int // remaining; -1 = unlimited
	counts map[string]uint64
}

// New builds an injector from opts.
func New(opts Options) *Injector {
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 25 * time.Millisecond
	}
	budget := opts.Budget
	if budget <= 0 {
		budget = -1
	}
	return &Injector{
		opts:   opts,
		disk:   newStream(opts.Seed, 0xd15c),
		net:    newStream(opts.Seed, 0x4e77),
		budget: budget,
		counts: make(map[string]uint64),
	}
}

// Register exports the injector's per-class tallies on reg as
// dynamo_faultio_injected_total{plane,kind}, read at scrape time, so
// injections made before Register count too.
func (in *Injector) Register(reg *telemetry.Registry) {
	if in == nil || reg == nil {
		return
	}
	for _, c := range []struct{ plane, kind string }{
		{"disk", KindENOSPC}, {"disk", KindTorn}, {"disk", KindCorrupt},
		{"net", KindDelay}, {"net", KindDrop}, {"net", KindDup},
	} {
		reg.Func("dynamo_faultio_injected_total", "counter", fmt.Sprintf("plane=%q,kind=%q", c.plane, c.kind),
			"Deterministically injected control-plane faults.", func() string {
				in.mu.Lock()
				defer in.mu.Unlock()
				return strconv.FormatUint(in.counts[c.kind], 10)
			})
	}
}

// Counts returns a snapshot of injections by class.
func (in *Injector) Counts() map[string]uint64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]uint64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Injected returns the total number of injections so far.
func (in *Injector) Injected() uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var n uint64
	for _, v := range in.counts {
		n += v
	}
	return n
}

// draw decides one fault of the given class: it advances the plane's
// stream (so abstaining still consumes schedule, keeping the sequence
// seed-stable), checks the budget, and tallies a hit.
func (in *Injector) draw(s *stream, permille int, kind string) bool {
	if in == nil || permille <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	hit := s.below(1000) < uint64(permille)
	if !hit || in.budget == 0 {
		return false
	}
	if in.budget > 0 {
		in.budget--
	}
	in.counts[kind]++
	return true
}

// delayFor draws a response delay in (0, MaxDelay].
func (in *Injector) delayFor() time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	return time.Duration(in.net.below(uint64(in.opts.MaxDelay))) + 1
}

// WrapFS layers the injector's disk-plane faults over fs. A nil injector
// returns fs unchanged.
func (in *Injector) WrapFS(fs FS) FS {
	if in == nil {
		return fs
	}
	return faultFS{in: in, fs: fs}
}

type faultFS struct {
	in *Injector
	fs FS
}

func (f faultFS) ReadFile(path string) ([]byte, error) {
	data, err := f.fs.ReadFile(path)
	if err == nil && len(data) > 1 && f.in.draw(f.in.disk, f.in.opts.CorruptPermille, KindCorrupt) {
		// A bad sector / short read: the document is cut mid-way, which a
		// JSON or checkpoint decoder must treat as corrupt, not as data.
		return data[:len(data)/2], nil
	}
	return data, err
}

func (f faultFS) WriteFileAtomic(dir, path string, data []byte) error {
	if f.in.draw(f.in.disk, f.in.opts.ENOSPCPermille, KindENOSPC) {
		return fmt.Errorf("faultio: injected write to %s: %w", path, syscall.ENOSPC)
	}
	if len(data) > 2 && f.in.draw(f.in.disk, f.in.opts.TornPermille, KindTorn) {
		// A torn commit: the rename landed but the data did not — the
		// failure mode the fsync discipline in OS.WriteFileAtomic exists
		// to prevent, kept injectable so readers prove they evict it.
		return f.fs.WriteFileAtomic(dir, path, data[:len(data)/3])
	}
	return f.fs.WriteFileAtomic(dir, path, data)
}

func (f faultFS) Rename(oldpath, newpath string) error { return f.fs.Rename(oldpath, newpath) }

func (f faultFS) Remove(path string) error { return f.fs.Remove(path) }

// WrapTransport layers the injector's network-plane faults over a
// client-side http.RoundTripper — the worker-fleet mirror of WrapHandler.
// A dropped request errors before anything is sent (the request never
// took effect); a duplicated one is performed but its response discarded
// (the request took effect, the caller cannot know) — both surface as
// ECONNRESET so the client's retryable() path engages, and both force the
// lease protocol to prove its idempotence: re-sent commits must be
// acknowledged as byte-identical duplicates, never double-applied. A nil
// injector (or nil rt, meaning the default transport) passes through.
func (in *Injector) WrapTransport(rt http.RoundTripper) http.RoundTripper {
	if rt == nil {
		rt = http.DefaultTransport
	}
	if in == nil {
		return rt
	}
	return faultTransport{in: in, rt: rt}
}

type faultTransport struct {
	in *Injector
	rt http.RoundTripper
}

func (t faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	in := t.in
	if in.draw(in.net, in.opts.DelayPermille, KindDelay) {
		time.Sleep(in.delayFor())
	}
	if in.draw(in.net, in.opts.DropPermille, KindDrop) {
		// Lost before reaching the server: the call had no effect.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("faultio: injected request drop: %w", syscall.ECONNRESET)
	}
	if in.draw(in.net, in.opts.DupPermille, KindDup) {
		// Delivered, but the response is lost on the way back: the call
		// took effect exactly once, yet the caller must retry blind.
		resp, err := t.rt.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil, fmt.Errorf("faultio: injected response loss: %w", syscall.ECONNRESET)
	}
	return t.rt.RoundTrip(req)
}

// discardWriter swallows a duplicated response: the handler runs for its
// side effects while the client sees an aborted connection.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriter) WriteHeader(int)               {}

// WrapHandler layers the injector's network-plane faults over h. Dropped
// and duplicated responses abort the connection with http.ErrAbortHandler
// (net/http suppresses its stack trace), so the client observes exactly
// what a killed server produces: ECONNRESET / unexpected EOF. Every
// control-plane endpoint is idempotent — submissions dedupe by digest —
// so duplication is safe to retry, which is precisely what the client's
// backoff loop must prove. A nil injector returns h unchanged.
func (in *Injector) WrapHandler(h http.Handler) http.Handler {
	if in == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if in.draw(in.net, in.opts.DelayPermille, KindDelay) {
			time.Sleep(in.delayFor())
		}
		if in.draw(in.net, in.opts.DropPermille, KindDrop) {
			panic(http.ErrAbortHandler)
		}
		if in.draw(in.net, in.opts.DupPermille, KindDup) {
			// The request takes effect server-side, but the response is
			// lost; the client's retry delivers it a second time.
			h.ServeHTTP(discardWriter{h: make(http.Header)}, r)
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, r)
	})
}
