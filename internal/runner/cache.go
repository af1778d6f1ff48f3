package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
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
// wall-clock the original simulation took. It does not check which
// request the document answers; DecodeEntryFor does, and the remote
// client rebuilds local outcomes through that, so a served result and a
// locally cached one are the same bytes decoded and checked the same way.
func DecodeEntry(data []byte) (*Outcome, time.Duration, error) {
	e, err := decodeEntry(data)
	if err != nil {
		return nil, 0, err
	}
	out, elapsed := e.outcome()
	return out, elapsed, nil
}

// ErrWrongEntry reports a cache document that answers another request
// than the one it was read for: another workload or parameters, or the
// same request under another ConfigSchema. Match with errors.Is.
var ErrWrongEntry = errors.New("runner: cache entry answers another request")

// DecodeEntryFor decodes a cache document as DecodeEntry does and checks
// that it answers q: its meta must be exactly q's canonical metadata, the
// check the persistent store makes on every hit. A runner saves every
// outcome under its own request's meta, so a document that crosses the
// wire (a worker's commit, a server's result) must pass this before it is
// trusted; a mismatch wraps ErrWrongEntry and names both metas.
func DecodeEntryFor(q Request, data []byte) (*Outcome, time.Duration, error) {
	e, err := decodeEntry(data)
	if err != nil {
		return nil, 0, err
	}
	if q = q.normalize(); !q.metaMatches(e.Meta) {
		got, _ := json.Marshal(e.Meta)
		want, _ := json.Marshal(q.meta())
		return nil, 0, fmt.Errorf("%w: entry meta %s, request meta %s", ErrWrongEntry, got, want)
	}
	out, elapsed := e.outcome()
	return out, elapsed, nil
}

// decodeEntry decodes a cache document and checks its schema.
func decodeEntry(data []byte) (*entry, error) {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("runner: decoding cache entry: %w", err)
	}
	if e.Schema != entrySchema || e.Result == nil {
		return nil, fmt.Errorf("runner: cache entry schema %d unusable (want %d)", e.Schema, entrySchema)
	}
	return &e, nil
}

// outcome is the entry's outcome and the original run's wall-clock.
func (e *entry) outcome() (*Outcome, time.Duration) {
	return &Outcome{Result: e.Result, Hot: e.Hot, Cached: true}, time.Duration(e.ElapsedNS)
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

// load returns the cached outcome for a normalized request and its
// digest, os.ErrNotExist on a clean miss, or errEvicted after removing an
// unusable entry: corrupt, of another schema, or answering another
// request. It runs on a loader (see Runner.loader), whose stack the decode
// grows once per burst of hits.
func (s *store) load(q Request, digest string) (*Outcome, time.Duration, error) {
	path := s.path(digest)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, 0, os.ErrNotExist
	}
	e, err := decodeEntry(data)
	if err != nil || !q.metaMatches(e.Meta) {
		return nil, 0, s.evict(path)
	}
	out, elapsed := e.outcome()
	return out, elapsed, nil
}

// read returns the raw cache document for digest once it decodes and its
// meta is what digest names, os.ErrNotExist on a clean miss, or
// errEvicted after removing an unusable file: corrupt, of another schema,
// or answering another request than digest's.
func (s *store) read(digest string) ([]byte, error) {
	if s == nil {
		return nil, os.ErrNotExist
	}
	path := s.path(digest)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, os.ErrNotExist
	}
	if e, err := decodeEntry(data); err != nil || metaDigest(e.Meta) != digest {
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

// save persists a normalized request's outcome atomically under its
// digest.
func (s *store) save(q Request, digest string, out *Outcome, elapsed time.Duration) error {
	if s == nil {
		return nil
	}
	data, err := encodeEntry(q, out, elapsed)
	if err != nil {
		return err
	}
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

// quarantine records a normalized request's failed run beside the result
// cache, under its digest, for post-mortem inspection. The write is
// atomic, so a concurrent worker reading the marker never sees a torn
// file. A nil store drops the record.
func (s *store) quarantine(q Request, digest string, cause error, attempts int) error {
	if s == nil {
		return nil
	}
	e := failedEntry{Schema: entrySchema, Meta: q.meta(), Error: cause.Error(), Attempts: attempts}
	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: encoding quarantine marker: %w", err)
	}
	return s.writeAtomic(s.failedPath(digest), append(data, '\n'))
}

// claimFailed atomically claims a request's quarantine marker before a
// re-run. When two workers sharing one cache directory both observe a
// stale marker, the rename guarantees exactly one of them wins the claim
// (and inherits the recorded attempt count); the loser sees a clean
// slate. This replaces the racy read-then-remove sequence in which both
// workers could fold the same stale attempt count into their accounting.
// A miss with no marker — every first run of a job — costs one failed
// read and nothing else.
func (s *store) claimFailed(digest string) (*failedEntry, bool) {
	if s == nil {
		return nil, false
	}
	marker := s.failedPath(digest)
	if _, err := s.fs.ReadFile(marker); err != nil {
		return nil, false
	}
	// Rename is atomic: of N concurrent claimers each renaming the marker
	// to its own random name, exactly one succeeds.
	claim := filepath.Join(s.dir, fmt.Sprintf(".claim-%s-%016x", digest, rand.Uint64()))
	if err := s.fs.Rename(marker, claim); err != nil {
		return nil, false
	}
	defer s.fs.Remove(claim)
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
	var buf bytes.Buffer
	if err := checkpoint.Write(&buf, ck); err != nil {
		return err
	}
	return s.writeAtomic(s.ckptPath(digest), buf.Bytes())
}

// loadCkpt returns the checkpoint persisted under a request digest,
// os.ErrNotExist on a clean miss. An unreadable, corrupt, incompatible or
// misattributed file is removed and its typed cause returned, so the
// caller counts an eviction and restarts from event zero.
func (s *store) loadCkpt(digest string) (*checkpoint.Checkpoint, error) {
	if s == nil {
		return nil, os.ErrNotExist
	}
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
