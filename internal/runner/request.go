// Package runner is the sweep engine behind the experiment harness and
// the public dynamo.Runner: it canonicalises every simulation request
// into a deterministic content digest, dedupes identical requests into a
// single job, executes jobs on a bounded worker pool (each job builds its
// own machine, so determinism is per-run, not per-schedule), and backs
// the in-memory result cache with a persistent on-disk store so repeated
// sweeps simulate nothing.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"dynamo/internal/chaos"
	"dynamo/internal/check"
	"dynamo/internal/checkpoint"
	"dynamo/internal/chi"
	"dynamo/internal/core"
	"dynamo/internal/machine"
	"dynamo/internal/obs"
	"dynamo/internal/obs/profile"
	"dynamo/internal/sim"
	"dynamo/internal/workload"
)

// ConfigSchema versions the meaning of a request digest. Bump it whenever
// the simulated system's semantics change (machine configuration defaults,
// workload generation, policy behaviour): every persisted cache entry is
// then invalidated at once, because digests stop matching.
const ConfigSchema = 1

// WireSchema versions the Request JSON wire format served and accepted by
// the sweep service. It is distinct from ConfigSchema: the wire schema
// names the shape of the request document, the config schema names what a
// digest means. Bump it when a field is renamed or its meaning changes.
const WireSchema = 1

// CounterSpec selects the Fig. 1 shared-counter microbenchmark instead of
// a registry workload: Threads threads each performing Ops atomic
// increments over Cells counters, with AtomicStore (NoReturn) or
// AtomicLoad semantics.
type CounterSpec struct {
	Ops      int  `json:"ops"`
	NoReturn bool `json:"no_return,omitempty"`
	// Cells is the number of shared counters (the Fig. 1 gap).
	Cells int `json:"cells"`
}

// Request identifies one simulation: a workload (or counter
// microbenchmark, or design-space candidate), a policy, the run
// parameters, and which reports to collect. Requests with equal
// canonical digests are the same job and share one result.
//
// Request is the single request type everywhere a run is named: the
// public dynamo.SweepRequest is an alias of it, CLI flags populate it,
// and the sweep service accepts it verbatim as the HTTP body — there is
// no parallel wire DTO. Its JSON field names are the stable lowercase
// keys of the canonical digest metadata (see meta), versioned by the
// schema field; Validate rejects a malformed document with typed field
// errors before anything is enqueued.
//
// All requests execute on the default Table II system, optionally mutated
// by Variant — the configuration is part of the digest via the variant
// name and ConfigSchema, never an arbitrary struct.
type Request struct {
	// Schema is the wire-format version (see WireSchema). Zero means "the
	// current schema" so hand-written requests stay terse; any other value
	// that is not WireSchema fails Validate. Schema is transport metadata,
	// not run identity: it never enters the digest.
	Schema int `json:"schema,omitempty"`
	// Workload is a registry workload name (empty when Counter is set).
	Workload string `json:"workload,omitempty"`
	// Policy is a registered policy name ("" selects "all-near").
	Policy string `json:"policy,omitempty"`
	// Input selects a workload input variant ("" = default).
	Input   string  `json:"input,omitempty"`
	Threads int     `json:"threads,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	// Variant names a non-default system configuration (see
	// ApplyVariant); "" and "base" are the default system.
	Variant string `json:"variant,omitempty"`
	// DSE selects an unregistered Section IV design-space candidate by
	// its decision string (see core.DecisionString); overrides Policy.
	DSE string `json:"dse,omitempty"`
	// Counter selects the Fig. 1 microbenchmark instead of Workload.
	Counter *CounterSpec `json:"counter,omitempty"`
	// Observe collects the observability report into the result's Obs.
	Observe bool `json:"observe,omitempty"`
	// ProfileTopK, when positive, attaches the contention profiler and
	// collects the top-K hot-line report (implies an observability bus).
	ProfileTopK int `json:"profile-topk,omitempty"`
	// Check attaches the protocol invariant sanitizer (default bounds);
	// a clean run reports its audit counters in the result's Check.
	Check bool `json:"check,omitempty"`
	// ChaosSeed / ChaosLevel attach the deterministic fault injector.
	// A non-zero seed with a zero level runs at level 1; a non-zero level
	// with a zero seed runs seed 1. Both zero leave the run unperturbed.
	ChaosSeed  int64 `json:"chaos-seed,omitempty"`
	ChaosLevel int   `json:"chaos-level,omitempty"`
}

// normalize fills defaults so equal effective requests share a digest.
func (q Request) normalize() Request {
	if q.Policy == "" && q.DSE == "" {
		q.Policy = "all-near"
	}
	if q.Threads == 0 {
		q.Threads = machine.DefaultConfig().Chi.Cores
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	if q.Scale == 0 {
		q.Scale = 1
	}
	if q.Variant == "base" {
		q.Variant = ""
	}
	q.ChaosSeed, q.ChaosLevel = chaos.Normalize(q.ChaosSeed, q.ChaosLevel)
	return q
}

// metaKeys lists every key of a request's canonical metadata in
// ascending byte order, the order the digest's JSON object is written in;
// appendMeta gives each key its value. Together they are the one
// definition of what a digest covers, and of the meta every persisted
// entry is verified against.
var metaKeys = [...]string{
	"chaos-level", "chaos-seed", "check",
	"counter-cells", "counter-noreturn", "counter-ops",
	"dse", "input", "observe", "policy", "profile-topk",
	"scale", "schema", "seed", "threads", "variant", "workload",
}

// appendMeta appends the text of key's value in a normalized request's
// metadata to b and reports whether the request carries the key; when it
// does not, b comes back unchanged. Design-space, counter, observability,
// sanitizer and chaos keys are carried only when set, so plain requests
// keep the digests their cache entries were saved under.
func (q *Request) appendMeta(b []byte, key string) ([]byte, bool) {
	var c CounterSpec
	if q.Counter != nil {
		c = *q.Counter
	}
	switch key {
	case "chaos-level":
		return appendInt(b, int64(q.ChaosLevel), q.ChaosLevel > 0)
	case "chaos-seed":
		return appendInt(b, q.ChaosSeed, q.ChaosLevel > 0)
	case "check":
		return appendString(b, "true", q.Check)
	case "counter-cells":
		return appendInt(b, int64(c.Cells), q.Counter != nil)
	case "counter-noreturn":
		return appendString(b, strconv.FormatBool(c.NoReturn), q.Counter != nil)
	case "counter-ops":
		return appendInt(b, int64(c.Ops), q.Counter != nil)
	case "dse":
		return appendString(b, q.DSE, q.DSE != "")
	case "input":
		return appendString(b, q.Input, true)
	case "observe":
		return appendString(b, "true", q.Observe)
	case "policy":
		return appendString(b, q.Policy, true)
	case "profile-topk":
		return appendInt(b, int64(q.ProfileTopK), q.ProfileTopK > 0)
	case "scale":
		return strconv.AppendFloat(b, q.Scale, 'g', -1, 64), true
	case "schema":
		return appendInt(b, ConfigSchema, true)
	case "seed":
		return appendInt(b, q.Seed, true)
	case "threads":
		return appendInt(b, int64(q.Threads), true)
	case "variant":
		return appendString(b, q.Variant, true)
	case "workload":
		return appendString(b, q.Workload, true)
	}
	panic("runner: unknown metadata key " + key)
}

func appendInt(b []byte, v int64, set bool) ([]byte, bool) {
	if !set {
		return b, false
	}
	return strconv.AppendInt(b, v, 10), true
}

func appendString(b []byte, v string, set bool) ([]byte, bool) {
	if !set {
		return b, false
	}
	return append(b, v...), true
}

// meta returns a normalized request's canonical metadata, the map every
// persisted entry and quarantine marker stores.
func (q Request) meta() map[string]string {
	m := make(map[string]string, len(metaKeys))
	for _, k := range metaKeys {
		if v, ok := q.appendMeta(nil, k); ok {
			m[k] = string(v)
		}
	}
	return m
}

// metaMatches reports whether m is exactly a normalized request's
// canonical metadata, without building the request's map.
func (q *Request) metaMatches(m map[string]string) bool {
	var scratch [64]byte
	n := 0
	for _, k := range metaKeys {
		v, ok := q.appendMeta(scratch[:0], k)
		if !ok {
			continue
		}
		n++
		if got, has := m[k]; !has || got != string(v) {
			return false
		}
	}
	return n == len(m)
}

// Digest returns the request's canonical content digest: the hex SHA-256
// of its normalized metadata as the JSON object json.Marshal writes for
// meta() (see writeDigest). The bytes must never change: persisted cache
// entries, checkpoints and quarantine markers are named by them.
func (q Request) Digest() string {
	q = q.normalize()
	return writeDigest(&q, nil)
}

// metaDigest returns the digest of a persisted entry's meta: the digest
// of the request whose canonical metadata it is, or "" when it holds a
// key no request's metadata has, as no digest names such an entry.
func metaDigest(m map[string]string) string {
	n := 0
	for _, k := range metaKeys {
		if _, ok := m[k]; ok {
			n++
		}
	}
	if n != len(m) {
		return ""
	}
	return writeDigest(nil, m)
}

// writeDigest is the one writer of a digest: the hex SHA-256 of the
// metadata of the normalized request q or, when q is nil, of the meta map
// m, as the JSON object json.Marshal writes for the map — keys sorted,
// every value a string, HTML-escaped — written directly, with no map
// (for q) and no reflection. Only metaKeys are written, so a map holding
// any other key gets the digest of its metaKeys alone. The value is
// appended in place rather than through a function value, which would
// move the buffer to the heap.
func writeDigest(q *Request, m map[string]string) string {
	var buf [320]byte
	b := append(buf[:0], '{')
	for _, k := range metaKeys {
		mark := len(b)
		if mark > 1 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, k...)
		b = append(b, `":"`...)
		start := len(b)
		var ok bool
		if q != nil {
			b, ok = q.appendMeta(b, k)
		} else {
			var v string
			v, ok = m[k]
			b = append(b, v...)
		}
		if !ok {
			b = b[:mark]
			continue
		}
		if plainJSON(b[start:]) {
			b = append(b, '"')
			continue
		}
		quoted, err := json.Marshal(string(b[start:]))
		if err != nil {
			// A string always marshals.
			panic(fmt.Sprintf("runner: quoting meta %q: %v", k, err))
		}
		b = append(b[:start-1], quoted...)
	}
	b = append(b, '}')
	sum := sha256.Sum256(b)
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:])
}

// plainJSON reports whether json.Marshal writes s between its quotes
// unchanged: no control byte, quote, backslash, HTML-escaped '<', '>' or
// '&', and no non-ASCII byte, since it escapes U+2028 and U+2029 and
// replaces invalid UTF-8.
func plainJSON(s []byte) bool {
	for _, c := range s {
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// String renders the request for logs and error wrapping.
func (q Request) String() string {
	name := q.Workload
	if q.Counter != nil {
		name = fmt.Sprintf("counter[%dx%d]", q.Threads, q.Counter.Ops)
	}
	policy := q.Policy
	if q.DSE != "" {
		policy = "dse[" + q.DSE + "]"
	}
	s := name + "/" + policy
	if q.Input != "" {
		s += "(" + q.Input + ")"
	}
	if q.Variant != "" && q.Variant != "base" {
		s += "@" + q.Variant
	}
	if q.Check {
		s += "+check"
	}
	if q.ChaosLevel > 0 {
		s += fmt.Sprintf("+chaos(%d/%d)", q.ChaosSeed, q.ChaosLevel)
	}
	return s
}

// ApplyVariant mutates cfg according to a named system variant: the
// Fig. 10/11 NoC and memory-latency points, single-parameter ablations
// (amobuf-N, maxatomics-N, occupancy-N, prefetch-N, maxevents-N) and AMT
// sizings (amt-e<entries>-w<ways>-c<counter>). "" and "base" leave the
// default.
func ApplyVariant(name string, cfg *machine.Config) error {
	switch name {
	case "", "base":
	case "noc-1c":
		cfg.Chi.Mesh.RouteLatency = 0
		cfg.Chi.Mesh.LinkLatency = 1
	case "noc-3c":
		cfg.Chi.Mesh.RouteLatency = 2
		cfg.Chi.Mesh.LinkLatency = 1
	case "half-lat":
		cfg.Chi.Mem.Latency /= 2
	case "double-lat":
		cfg.Chi.Mem.Latency *= 2
	default:
		var n int
		switch {
		case scanInt(name, "amobuf-%d", &n):
			cfg.Chi.AMOBufEntries = n
		case scanInt(name, "maxatomics-%d", &n):
			cfg.CPU.MaxAtomics = n
		case scanInt(name, "occupancy-%d", &n):
			cfg.Chi.FarAMOOccupancy = sim.Tick(n)
		case scanInt(name, "prefetch-%d", &n):
			cfg.Chi.PrefetchDegree = n
		case scanInt(name, "maxevents-%d", &n):
			cfg.MaxEvents = uint64(n)
		default:
			// AMT variants: amt-e<entries>-w<ways>-c<counter>.
			var e, w, c int
			if _, err := fmt.Sscanf(name, "amt-e%d-w%d-c%d", &e, &w, &c); err != nil {
				return fmt.Errorf("runner: unknown system variant %q", name)
			}
			cfg.AMT = core.AMTConfig{Entries: e, Ways: w, CounterMax: c}
		}
	}
	return nil
}

// scanInt parses a single-integer variant name.
func scanInt(name, format string, out *int) bool {
	_, err := fmt.Sscanf(name, format, out)
	return err == nil
}

// dsePolicy resolves a Section IV decision string to its candidate.
func dsePolicy(decisions string) (*core.Static, error) {
	for _, p := range core.PracticalDesignSpace() {
		if core.DecisionString(p) == decisions {
			return p, nil
		}
	}
	return nil, fmt.Errorf("runner: unknown design-space policy %q", decisions)
}

// ExecOptions carries a job's wiring into an executor: periodic
// checkpoint capture, resume from a checkpoint, cooperative interruption
// and the slot's arena. The runner fills it for every job it executes;
// the zero value runs the request plainly.
type ExecOptions struct {
	// CkptEvery, when nonzero, captures a checkpoint into Sink roughly
	// every CkptEvery simulation events.
	CkptEvery uint64
	// Sink receives captured checkpoints (required when CkptEvery > 0).
	Sink func(*checkpoint.Checkpoint)
	// CkptDue, when non-nil, gates the periodic captures (see
	// machine.Config.CkptDue); nil captures at every boundary.
	CkptDue func() bool
	// Resume, when non-nil, restores the run from this checkpoint via the
	// machine's verified deterministic replay. Its identity must be the
	// request's digest.
	Resume *checkpoint.Checkpoint
	// Interrupt stops the run at its next checkpoint boundary with
	// machine.ErrInterrupted (after a final Sink capture when
	// checkpointing is on).
	Interrupt <-chan struct{}
	// Arena, when non-nil, is the executing slot's: ExecuteLocal builds
	// the machine from the storage the slot's last job handed back and
	// hands its own back when the run returns. It serves one job at a
	// time; executors that simulate nothing here ignore it.
	Arena *machine.Arena
}

// ExecuteLocal simulates one request in this process: its own machine,
// its own workload instance, fully deterministic regardless of what other
// jobs run concurrently. It is the runner's default executor and the one
// a fleet worker runs leased jobs through. Checkpoints are stamped with
// the request's canonical digest as their identity, so a checkpoint
// captured on one host resumes the same request on any other.
func ExecuteLocal(q Request, x ExecOptions) (*Outcome, error) {
	q = q.normalize()
	cfg := machine.DefaultConfig()
	if err := ApplyVariant(q.Variant, &cfg); err != nil {
		return nil, err
	}
	if q.Check {
		cfg.Check = &check.Config{}
	}
	cfg.ChaosSeed, cfg.ChaosLevel = q.ChaosSeed, q.ChaosLevel
	cfg.CkptEvery = x.CkptEvery
	cfg.CkptIdentity = q.Digest()
	cfg.CkptSink = x.Sink
	cfg.CkptDue = x.CkptDue
	cfg.Interrupt = x.Interrupt
	var bus *obs.Bus
	var prof *profile.Profiler
	if q.Observe || q.ProfileTopK > 0 {
		bus = obs.New(obs.Options{})
		cfg.Obs = bus
	}
	if q.ProfileTopK > 0 {
		prof = profile.NewProfiler(q.ProfileTopK)
		bus.AttachContention(prof)
	}

	var inst *workload.Instance
	var err error
	if q.Counter != nil {
		inst, err = workload.Counter(q.Threads, q.Counter.Ops, q.Counter.NoReturn, q.Counter.Cells)
	} else {
		var spec *workload.Spec
		spec, err = workload.Get(q.Workload)
		if err == nil {
			inst, err = spec.Build(workload.Params{
				Threads: q.Threads,
				Seed:    q.Seed,
				Scale:   q.Scale,
				Input:   q.Input,
			})
		}
	}
	if err != nil {
		return nil, err
	}

	// A nil policy builds q.Policy from the registry.
	var policy chi.Policy
	if q.DSE != "" {
		if policy, err = dsePolicy(q.DSE); err != nil {
			return nil, err
		}
	} else {
		cfg.Policy = q.Policy
	}
	m, err := machine.NewIn(cfg, policy, x.Arena)
	if err != nil {
		return nil, err
	}
	// The machine's storage goes back to the slot's arena once the run
	// (and with it the validator) has returned and the hot-line report is
	// taken, on success and failure alike. A panic skips this, and the
	// collector takes the storage instead.
	res, err := inst.Run(m, x.Resume)
	var out *Outcome
	if err == nil {
		out = &Outcome{Result: res}
		if prof != nil {
			out.Hot = prof.Report(bus.SiteOf)
		}
	}
	m.Sys.Recycle()
	return out, err
}
