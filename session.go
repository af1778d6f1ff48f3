package dynamo

import (
	"fmt"
	"io"

	"dynamo/internal/check"
	"dynamo/internal/checkpoint"
	"dynamo/internal/core"
	"dynamo/internal/machine"
	"dynamo/internal/memory"
	"dynamo/internal/obs/profile"
	"dynamo/internal/perf"
	"dynamo/internal/runner"
	"dynamo/internal/trace"
	"dynamo/internal/workload"
)

// Sentinel errors for the public surface; match with errors.Is. Every
// constructor and run entry point wraps these instead of bare strings.
var (
	// ErrUnknownPolicy reports a placement-policy name that is not
	// registered (see Policies).
	ErrUnknownPolicy = core.ErrUnknownPolicy
	// ErrUnknownWorkload reports a workload name that is not registered
	// (see Workloads).
	ErrUnknownWorkload = workload.ErrUnknown
	// ErrTimeout reports a run that exceeded its simulated event budget
	// (Config.MaxEvents).
	ErrTimeout = machine.ErrTimeout
	// ErrStalled reports a run the forward-progress watchdog abandoned: no
	// core committed an instruction for Config.WatchdogEvents events. The
	// returned error carries a machine diagnostic (event-queue, MSHR and
	// hot-line state at the stall).
	ErrStalled = machine.ErrStalled
	// ErrViolation reports a run the protocol invariant sanitizer aborted
	// (WithCheck); the returned error is a *check.Violation carrying the
	// violated invariant and a recent protocol-event trail.
	ErrViolation = check.ErrViolation
	// ErrJobPanicked reports a sweep job whose simulation panicked; the
	// Runner recovered and the rest of the sweep completed.
	ErrJobPanicked = runner.ErrJobPanicked
	// ErrInterrupted reports a run cancelled through WithInterrupt (or a
	// sweep cancelled through WithRunnerInterrupt). When checkpointing was
	// enabled, a final checkpoint was captured before the abort, so the
	// run is resumable, not lost.
	ErrInterrupted = machine.ErrInterrupted
	// ErrCheckpointIncompatible reports a checkpoint from a different
	// schema version or run identity.
	ErrCheckpointIncompatible = checkpoint.ErrIncompatible
	// ErrCheckpointCorrupt reports an unreadable, truncated or
	// digest-failing checkpoint.
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
	// ErrCheckpointDiverged reports a checkpoint whose deterministic
	// replay did not reproduce the stored state — the configuration or
	// simulator build no longer matches the run that captured it.
	ErrCheckpointDiverged = checkpoint.ErrDiverged
)

// Checkpoint is one serialized machine state at a specific event index,
// captured through WithCheckpoint and restored through Session.Resume.
// Restores are verified: the machine replays its deterministic event
// stream to the checkpoint's event index and cross-validates the
// reconstructed state against the stored digest bit-exactly, so a
// resumed run is byte-identical to one that was never interrupted.
type Checkpoint = checkpoint.Checkpoint

// ReadCheckpoint parses and structurally validates a serialized
// checkpoint: parse failures and digest mismatches return
// ErrCheckpointCorrupt, schema drift returns ErrCheckpointIncompatible.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	return machine.Restore(r)
}

// Session is a configured simulation context: one system configuration
// plus run parameters, built once with New and reused across runs. Runs
// on the same Session are independent — each builds its own machine — so
// a Session is safe for concurrent Run calls as long as the attached
// collectors (Obs, Profile, Interval, Trace) are not shared.
type Session struct {
	// cfg is every run's machine configuration and params its workload
	// parameters; trace, profile and hostPerf are attached per run.
	cfg            Config
	params         workload.Params
	trace          *trace.Writer
	profile        *profile.Profiler
	hostPerf       bool
	skipValidation bool
}

// Option configures a Session. An option overrides the matching field of
// the Config given to New.
type Option func(*Session)

// WithPolicy selects the AMO placement policy (default: the Config's
// Policy, or "all-near", the paper's baseline, when that is empty; see
// Policies).
func WithPolicy(name string) Option {
	return func(s *Session) { s.cfg.Policy = name }
}

// WithThreads sets the worker-thread count (default: the core count).
func WithThreads(n int) Option {
	return func(s *Session) { s.params.Threads = n }
}

// WithSeed sets the seed driving all pseudo-random choices (default 1).
func WithSeed(seed int64) Option {
	return func(s *Session) { s.params.Seed = seed }
}

// WithScale multiplies the default problem size (default 1.0).
func WithScale(scale float64) Option {
	return func(s *Session) { s.params.Scale = scale }
}

// WithInput selects a workload input variant (default: the workload's
// first registered input).
func WithInput(input string) Option {
	return func(s *Session) { s.params.Input = input }
}

// WithTrace records every executed thread operation to w.
func WithTrace(w *trace.Writer) Option {
	return func(s *Session) { s.trace = w }
}

// WithObs attaches an observability bus; the run's digest lands in
// Result.Obs.
func WithObs(bus *ObsBus) Option {
	return func(s *Session) { s.cfg.Obs = bus }
}

// WithProfile attaches the per-cacheline contention profiler (requires
// WithObs).
func WithProfile(p *Profiler) Option {
	return func(s *Session) { s.profile = p }
}

// WithInterval attaches the interval-telemetry recorder.
func WithInterval(rec *IntervalRecorder) Option {
	return func(s *Session) { s.cfg.Interval = rec }
}

// WithoutValidation disables the post-run functional check (benchmarks).
func WithoutValidation() Option {
	return func(s *Session) { s.skipValidation = true }
}

// WithCheck attaches the runtime protocol invariant sanitizer: SWMR and
// directory audits on every transaction release and at a periodic
// interval, MSHR and transaction-table occupancy bounds, and end-of-run
// quiescence and leak audits. A violated invariant aborts the run with a
// *check.Violation (match with ErrViolation); a clean run reports its
// audit counters in Result.Check.
func WithCheck() Option {
	return func(s *Session) { s.cfg.Check = &check.Config{} }
}

// WithHostPerf attaches the host-performance self-profiler: every kernel
// event is counted per scheduling subsystem, wall-clock cost is sampled
// (one timed event per perf.DefaultSampleStride), and heap/GC deltas are
// read via runtime/metrics. The report lands in Result.HostPerf.
// Profiling is purely observational: simulated results are bit-identical
// with it on or off.
func WithHostPerf() Option {
	return func(s *Session) { s.hostPerf = true }
}

// WithChaos attaches the deterministic fault injector: protocol-legal
// timing perturbations (NoC link jitter, HBM channel skew, snoop-response
// reordering, forced predictor-table eviction pressure) drawn from seed
// at intensity level 1..3. Functional results are unaffected by
// construction — only schedules move — and a given seed replays exactly.
// A zero level with a non-zero seed selects level 1, and vice versa.
func WithChaos(seed int64, level int) Option {
	return func(s *Session) { s.cfg.ChaosSeed, s.cfg.ChaosLevel = seed, level }
}

// WithCheckpoint captures a checkpoint to sink every `every` simulation
// events, plus a final checkpoint when the run is interrupted
// (WithInterrupt). Restore one with Session.Resume.
func WithCheckpoint(every uint64, sink func(*Checkpoint)) Option {
	return func(s *Session) { s.cfg.CkptEvery, s.cfg.CkptSink = every, sink }
}

// WithInterrupt cancels a run once ch is signaled or closed: the machine
// captures a final checkpoint to the WithCheckpoint sink (when one is
// configured) and aborts with ErrInterrupted.
func WithInterrupt(ch <-chan struct{}) Option {
	return func(s *Session) { s.cfg.Interrupt = ch }
}

// New builds a Session on cfg and applies the options. A Config field no
// option sets is used as given; an empty Policy runs "all-near". The
// whole configuration is validated here, not at the first run: an
// unregistered policy returns ErrUnknownPolicy, and a bad geometry, AMT
// sizing, chaos level or thread count fails too.
func New(cfg Config, options ...Option) (*Session, error) {
	s := &Session{cfg: cfg}
	for _, o := range options {
		o(s)
	}
	if s.cfg.Policy == "" {
		s.cfg.Policy = "all-near"
	}
	if s.params.Threads == 0 {
		s.params.Threads = s.cfg.Chi.Cores
	}
	if s.params.Threads > s.cfg.Chi.Cores {
		return nil, fmt.Errorf("dynamo: %d threads exceed %d cores", s.params.Threads, s.cfg.Chi.Cores)
	}
	if s.params.Seed == 0 {
		s.params.Seed = 1
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Run executes the named workload and returns its metrics. The workload's
// functional result is validated unless the Session was built with
// WithoutValidation.
func (s *Session) Run(workloadName string) (*Result, error) {
	return s.Resume(workloadName, nil)
}

// Resume restores a run of the named workload from a checkpoint and
// carries it to completion, returning metrics byte-identical to an
// uninterrupted run; a nil checkpoint runs from the start, like Run. The
// Session must be configured identically to the one that captured the
// checkpoint (same config, policy, parameters and chaos): an
// unreproducible checkpoint fails with ErrCheckpointDiverged, a
// mismatched identity with ErrCheckpointIncompatible.
func (s *Session) Resume(workloadName string, ck *Checkpoint) (*Result, error) {
	spec, err := workload.Get(workloadName)
	if err != nil {
		return nil, err
	}
	inst, err := spec.Build(s.params)
	if err != nil {
		return nil, err
	}
	_, res, err := s.run(inst, ck)
	return res, err
}

// RunCounter executes the Fig. 1 shared-counter microbenchmark: the
// Session's threads each performing ops atomic increments, with
// AtomicStore (noReturn) or AtomicLoad semantics.
func (s *Session) RunCounter(ops int, noReturn bool) (*Result, error) {
	inst, err := workload.Counter(s.params.Threads, ops, noReturn, 8)
	if err != nil {
		return nil, err
	}
	_, res, err := s.run(inst, nil)
	return res, err
}

// RunPrograms executes custom programs (at most one per core) built
// against the Thread API under every Session option, and returns the
// metrics plus a read function for inspecting final memory contents.
// Custom programs carry no validator, so no functional check runs.
func (s *Session) RunPrograms(programs []Program) (*Result, func(addr uint64) uint64, error) {
	m, res, err := s.run(&workload.Instance{Programs: programs}, nil)
	if err != nil {
		return nil, nil, err
	}
	return res, func(addr uint64) uint64 { return m.Sys.Data.Load(memory.Addr(addr)) }, nil
}

// run is every run's path. It builds a machine from a copy of the
// Session's config plus this run's trace recorder, host-perf profiler and
// contention hook, and hands it to inst's run tail, which runs inst from
// its start (or from ck when non-nil) and validates the result.
func (s *Session) run(inst *workload.Instance, ck *Checkpoint) (*machine.Machine, *Result, error) {
	cfg := s.cfg
	if s.profile != nil {
		if cfg.Obs == nil {
			return nil, nil, fmt.Errorf("dynamo: WithProfile requires WithObs")
		}
		cfg.Obs.AttachContention(s.profile)
	}
	if s.hostPerf {
		cfg.Perf = perf.New(0)
	}
	if s.trace != nil {
		var flush func() error
		cfg.CPU.Observe, flush = trace.Recorder(s.trace)
		defer flush()
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if s.skipValidation {
		// Every run builds its own instance, so no other run loses it.
		inst.Validate = nil
	}
	res, err := inst.Run(m, ck)
	if err != nil {
		return nil, nil, err
	}
	return m, res, nil
}
