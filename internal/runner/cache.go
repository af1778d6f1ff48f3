package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dynamo/internal/checkpoint"
	"dynamo/internal/faultio"
	"dynamo/internal/machine"
	"dynamo/internal/obs/profile"
)

// entrySchema versions the on-disk cache file format (distinct from
// ConfigSchema, which versions what a digest means). Entries written under
// an older schema are evicted on read.
const entrySchema = 1

// entry is one persisted cache file: results/cache/<digest>.json.
type entry struct {
	Schema int `json:"schema"`
	// Meta is the request's canonical metadata, stored so a hit can be
	// verified against the request instead of trusting the filename.
	Meta map[string]string `json:"meta"`
	// ElapsedNS is the wall-clock the original simulation took; cache
	// hits credit it to Stats.Saved.
	ElapsedNS int64              `json:"elapsed_ns"`
	Result    *machine.Result    `json:"result"`
	Hot       *profile.HotReport `json:"hot,omitempty"`
}

// DecodeEntry decodes one persisted cache document — the exact bytes of
// <cacheDir>/<digest>.json, which is also what the sweep service's
// /v1/jobs/{digest} endpoint serves — back into an outcome plus the
// wall-clock the original simulation took. The remote client rebuilds
// local outcomes through it, so a served result and a locally cached one
// are the same bytes decoded the same way.
func DecodeEntry(data []byte) (*Outcome, time.Duration, error) {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, 0, fmt.Errorf("runner: decoding cache entry: %w", err)
	}
	if e.Schema != entrySchema || e.Result == nil {
		return nil, 0, fmt.Errorf("runner: cache entry schema %d unusable (want %d)", e.Schema, entrySchema)
	}
	return &Outcome{Result: e.Result, Hot: e.Hot, Cached: true}, time.Duration(e.ElapsedNS), nil
}

// EncodeEntry renders the canonical persisted-cache document for a
// finished job — the same bytes save writes and DecodeEntry reads. A fleet
// worker commits its result as these bytes, so the server fences
// duplicate commits on exactly what the worker computed.
func EncodeEntry(q Request, out *Outcome, elapsed time.Duration) ([]byte, error) {
	return encodeEntry(q.normalize(), out, elapsed)
}

// store is the persistent result cache. A nil store (no cache directory)
// never hits and never writes. All disk traffic funnels through fs — the
// seam the deterministic fault injector wraps; the default is the real,
// fsync-hardened filesystem (faultio.OS).
type store struct {
	dir string
	fs  faultio.FS
}

func newStore(dir string, fs faultio.FS) *store {
	if dir == "" {
		return nil
	}
	if fs == nil {
		fs = faultio.OS{}
	}
	return &store{dir: dir, fs: fs}
}

func (s *store) path(digest string) string {
	return filepath.Join(s.dir, digest+".json")
}

func (s *store) failedPath(digest string) string {
	return filepath.Join(s.dir, digest+".failed.json")
}

func (s *store) ckptPath(digest string) string {
	return filepath.Join(s.dir, digest+".ckpt.json")
}

// errEvicted marks a cache file that existed but was unusable (corrupt,
// old schema, or digest collision); the caller counts an eviction and
// re-simulates.
var errEvicted = errors.New("runner: cache entry evicted")

// load returns the cached outcome for a request, os.ErrNotExist on a
// clean miss, or errEvicted after removing an unusable entry. It decodes
// inline: every cache hit runs it on a fresh goroutine, whose stack a
// deeper call chain would make grow once more per job.
func (s *store) load(q Request) (*Outcome, time.Duration, error) {
	if s == nil {
		return nil, 0, os.ErrNotExist
	}
	path := s.path(q.Digest())
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, 0, os.ErrNotExist
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, 0, s.evict(path)
	}
	if e.Schema != entrySchema || e.Result == nil || !metaEqual(e.Meta, q.meta()) {
		return nil, 0, s.evict(path)
	}
	return &Outcome{Result: e.Result, Hot: e.Hot, Cached: true},
		time.Duration(e.ElapsedNS), nil
}

// read returns the raw cache document for digest once it decodes,
// os.ErrNotExist on a clean miss, or errEvicted after removing an
// unusable file.
func (s *store) read(digest string) ([]byte, error) {
	if s == nil {
		return nil, os.ErrNotExist
	}
	path := s.path(digest)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, os.ErrNotExist
	}
	if _, _, err := DecodeEntry(data); err != nil {
		return nil, s.evict(path)
	}
	return data, nil
}

func (s *store) evict(path string) error {
	s.fs.Remove(path)
	return errEvicted
}

// writeAtomic writes data to path through the store's file plane: a temp
// file in the cache directory, fsync, then rename (see
// faultio.OS.WriteFileAtomic for the durability discipline), so a
// concurrent reader — or a post-crash restart — sees either the old file
// or the complete new one, never a partial write.
func (s *store) writeAtomic(path string, data []byte) error {
	if err := s.fs.WriteFileAtomic(s.dir, path, data); err != nil {
		return fmt.Errorf("runner: writing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// encodeEntry renders the canonical persisted-cache document for a
// finished job: the exact bytes save writes and /v1/jobs/{digest} serves.
func encodeEntry(q Request, out *Outcome, elapsed time.Duration) ([]byte, error) {
	e := entry{
		Schema:    entrySchema,
		Meta:      q.meta(),
		ElapsedNS: elapsed.Nanoseconds(),
		Result:    out.Result,
		Hot:       out.Hot,
	}
	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("runner: encoding cache entry: %w", err)
	}
	return append(data, '\n'), nil
}

// save persists an outcome atomically.
func (s *store) save(q Request, out *Outcome, elapsed time.Duration) error {
	if s == nil {
		return nil
	}
	data, err := encodeEntry(q, out, elapsed)
	if err != nil {
		return err
	}
	digest := q.Digest()
	if err := s.writeAtomic(s.path(digest), data); err != nil {
		return err
	}
	// A successful run supersedes any quarantine marker from an earlier
	// failed attempt (e.g. after a simulator fix).
	s.fs.Remove(s.failedPath(digest))
	return nil
}

// failedEntry is one quarantine marker: results/cache/<digest>.failed.json.
// Markers record why a request failed without ever being served as a
// result — a failed run is re-simulated, not replayed.
type failedEntry struct {
	Schema int               `json:"schema"`
	Meta   map[string]string `json:"meta"`
	Error  string            `json:"error"`
	// Attempts counts how many times the request has executed and failed,
	// across retries and across claimed earlier markers.
	Attempts int `json:"attempts,omitempty"`
}

// quarantine records a failed run beside the result cache for post-mortem
// inspection. The write is atomic, so a concurrent worker reading the
// marker never sees a torn file. A nil store drops the record.
func (s *store) quarantine(q Request, cause error, attempts int) error {
	if s == nil {
		return nil
	}
	e := failedEntry{Schema: entrySchema, Meta: q.meta(), Error: cause.Error(), Attempts: attempts}
	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: encoding quarantine marker: %w", err)
	}
	return s.writeAtomic(s.failedPath(q.Digest()), append(data, '\n'))
}

// claimFailed atomically claims a request's quarantine marker before a
// re-run. When two workers sharing one cache directory both observe a
// stale marker, the rename guarantees exactly one of them wins the claim
// (and inherits the recorded attempt count); the loser sees a clean
// slate. This replaces the racy read-then-remove sequence in which both
// workers could fold the same stale attempt count into their accounting.
func (s *store) claimFailed(digest string) (*failedEntry, bool) {
	if s == nil {
		return nil, false
	}
	tmp, err := os.CreateTemp(s.dir, ".claim-*")
	if err != nil {
		return nil, false
	}
	claim := tmp.Name()
	tmp.Close()
	os.Remove(claim)
	// Rename is atomic: of N concurrent claimers each renaming the marker
	// to its own unique name, exactly one succeeds.
	if err := s.fs.Rename(s.failedPath(digest), claim); err != nil {
		return nil, false
	}
	defer os.Remove(claim)
	data, err := s.fs.ReadFile(claim)
	if err != nil {
		return nil, true
	}
	var e failedEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, true
	}
	return &e, true
}

// saveCkpt atomically persists a job's latest checkpoint as
// <digest>.ckpt.json: a crash mid-write leaves the previous checkpoint
// intact, never a truncated file.
func (s *store) saveCkpt(digest string, ck *checkpoint.Checkpoint) error {
	if s == nil {
		return nil
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("runner: encoding checkpoint: %w", err)
	}
	return s.writeAtomic(s.ckptPath(digest), append(data, '\n'))
}

// loadCkpt returns a request's persisted checkpoint, os.ErrNotExist on a
// clean miss. An unreadable, corrupt, incompatible or misattributed file
// is removed and its typed cause returned, so the caller counts an
// eviction and restarts from event zero.
func (s *store) loadCkpt(q Request) (*checkpoint.Checkpoint, error) {
	if s == nil {
		return nil, os.ErrNotExist
	}
	digest := q.Digest()
	path := s.ckptPath(digest)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, os.ErrNotExist
	}
	ck, err := checkpoint.Read(bytes.NewReader(data))
	if err != nil {
		s.fs.Remove(path)
		return nil, err
	}
	if err := ck.Compatible(digest); err != nil {
		s.fs.Remove(path)
		return nil, err
	}
	return ck, nil
}

// removeCkpt drops a job's persisted checkpoint (the job completed, or
// its checkpoint proved unusable).
func (s *store) removeCkpt(digest string) {
	if s == nil {
		return
	}
	s.fs.Remove(s.ckptPath(digest))
}

func metaEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
