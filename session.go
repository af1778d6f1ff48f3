package dynamo

import (
	"fmt"
	"io"

	"dynamo/internal/check"
	"dynamo/internal/checkpoint"
	"dynamo/internal/core"
	"dynamo/internal/machine"
	"dynamo/internal/memory"
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
	cfg  Config
	opts options
}

// Option configures a Session.
type Option func(*Session)

// WithPolicy selects the AMO placement policy (default "all-near", the
// paper's baseline; see Policies).
func WithPolicy(name string) Option {
	return func(s *Session) { s.opts.Policy = name }
}

// WithThreads sets the worker-thread count (default: the core count).
func WithThreads(n int) Option {
	return func(s *Session) { s.opts.Threads = n }
}

// WithSeed sets the seed driving all pseudo-random choices (default 1).
func WithSeed(seed int64) Option {
	return func(s *Session) { s.opts.Seed = seed }
}

// WithScale multiplies the default problem size (default 1.0).
func WithScale(scale float64) Option {
	return func(s *Session) { s.opts.Scale = scale }
}

// WithInput selects a workload input variant (default: the workload's
// first registered input).
func WithInput(input string) Option {
	return func(s *Session) { s.opts.Input = input }
}

// WithTrace records every executed thread operation to w.
func WithTrace(w *trace.Writer) Option {
	return func(s *Session) { s.opts.Trace = w }
}

// WithObs attaches an observability bus; the run's digest lands in
// Result.Obs.
func WithObs(bus *ObsBus) Option {
	return func(s *Session) { s.opts.Obs = bus }
}

// WithProfile attaches the per-cacheline contention profiler (requires
// WithObs).
func WithProfile(p *Profiler) Option {
	return func(s *Session) { s.opts.Profile = p }
}

// WithInterval attaches the interval-telemetry recorder.
func WithInterval(rec *IntervalRecorder) Option {
	return func(s *Session) { s.opts.Interval = rec }
}

// WithoutValidation disables the post-run functional check (benchmarks).
func WithoutValidation() Option {
	return func(s *Session) { s.opts.SkipValidation = true }
}

// WithCheck attaches the runtime protocol invariant sanitizer: SWMR and
// directory audits on every transaction release and at a periodic
// interval, MSHR and transaction-table occupancy bounds, and end-of-run
// quiescence and leak audits. A violated invariant aborts the run with a
// *check.Violation (match with ErrViolation); a clean run reports its
// audit counters in Result.Check.
func WithCheck() Option {
	return func(s *Session) { s.opts.Check = true }
}

// WithHostPerf attaches the host-performance self-profiler: every kernel
// event is counted per scheduling subsystem, wall-clock cost is sampled
// (one timed event per perf.DefaultSampleStride), and heap/GC deltas are
// read via runtime/metrics. The report lands in Result.HostPerf.
// Profiling is purely observational: simulated results are bit-identical
// with it on or off.
func WithHostPerf() Option {
	return func(s *Session) { s.opts.HostPerf = true }
}

// WithChaos attaches the deterministic fault injector: protocol-legal
// timing perturbations (NoC link jitter, HBM channel skew, snoop-response
// reordering, forced predictor-table eviction pressure) drawn from seed
// at intensity level 1..3. Functional results are unaffected by
// construction — only schedules move — and a given seed replays exactly.
// A zero level with a non-zero seed selects level 1, and vice versa.
func WithChaos(seed int64, level int) Option {
	return func(s *Session) {
		s.opts.ChaosSeed = seed
		s.opts.ChaosLevel = level
	}
}

// WithCheckpoint captures a checkpoint to sink every `every` simulation
// events, plus a final checkpoint when the run is interrupted
// (WithInterrupt). Restore one with Session.Resume.
func WithCheckpoint(every uint64, sink func(*Checkpoint)) Option {
	return func(s *Session) {
		s.opts.CkptEvery = every
		s.opts.CkptSink = sink
	}
}

// WithInterrupt cancels a run once ch is signaled or closed: the machine
// captures a final checkpoint to the WithCheckpoint sink (when one is
// configured) and aborts with ErrInterrupted.
func WithInterrupt(ch <-chan struct{}) Option {
	return func(s *Session) { s.opts.Interrupt = ch }
}

// New builds a Session on cfg. The policy name and thread count are
// validated eagerly: an unregistered policy returns ErrUnknownPolicy
// here, not at the first Run.
func New(cfg Config, options ...Option) (*Session, error) {
	s := &Session{cfg: cfg}
	for _, o := range options {
		o(s)
	}
	s.opts.Config = &s.cfg
	filled, conf, err := s.opts.fill()
	if err != nil {
		return nil, err
	}
	if _, err := core.New(conf.Policy, conf.Chi.Cores, conf.AMT); err != nil {
		return nil, err
	}
	s.opts = filled
	s.cfg = conf
	s.opts.Config = &s.cfg
	return s, nil
}

// Run executes the named workload and returns its metrics. The workload's
// functional result is validated unless the Session was built with
// WithoutValidation.
func (s *Session) Run(workloadName string) (*Result, error) {
	spec, err := workload.Get(workloadName)
	if err != nil {
		return nil, err
	}
	inst, err := spec.Build(workload.Params{
		Threads: s.opts.Threads,
		Seed:    s.opts.Seed,
		Scale:   s.opts.Scale,
		Input:   s.opts.Input,
	})
	if err != nil {
		return nil, err
	}
	return runInstance(s.cfg, inst, s.opts)
}

// Resume restores a run of the named workload from a checkpoint and
// carries it to completion, returning metrics byte-identical to an
// uninterrupted run. The Session must be configured identically to the
// one that captured the checkpoint (same config, policy, parameters and
// chaos wiring): an unreproducible checkpoint fails with
// ErrCheckpointDiverged, a mismatched identity with
// ErrCheckpointIncompatible.
func (s *Session) Resume(workloadName string, ck *Checkpoint) (*Result, error) {
	spec, err := workload.Get(workloadName)
	if err != nil {
		return nil, err
	}
	inst, err := spec.Build(workload.Params{
		Threads: s.opts.Threads,
		Seed:    s.opts.Seed,
		Scale:   s.opts.Scale,
		Input:   s.opts.Input,
	})
	if err != nil {
		return nil, err
	}
	opts := s.opts
	opts.resume = ck
	return runInstance(s.cfg, inst, opts)
}

// RunCounter executes the Fig. 1 shared-counter microbenchmark: the
// Session's threads each performing ops atomic increments, with
// AtomicStore (noReturn) or AtomicLoad semantics.
func (s *Session) RunCounter(ops int, noReturn bool) (*Result, error) {
	inst, err := workload.Counter(s.opts.Threads, ops, noReturn, 8)
	if err != nil {
		return nil, err
	}
	return runInstance(s.cfg, inst, s.opts)
}

// RunPrograms executes custom programs (at most one per core) built
// against the Thread API, honouring the Session's trace and
// observability attachments, and returns the metrics plus a read
// function for inspecting final memory contents. Custom programs carry
// no validator, so no functional check runs.
func (s *Session) RunPrograms(programs []Program) (*Result, func(addr uint64) uint64, error) {
	cfg := s.cfg
	opts := s.opts
	if opts.Trace != nil {
		observe, flush := trace.Recorder(opts.Trace)
		cfg.CPU.Observe = observe
		defer flush()
	}
	cfg.Obs = opts.Obs
	cfg.Interval = opts.Interval
	if opts.Check {
		cfg.Check = &check.Config{}
	}
	if opts.HostPerf {
		cfg.Perf = perf.New(0)
	}
	if opts.Profile != nil {
		if opts.Obs == nil {
			return nil, nil, fmt.Errorf("dynamo: WithProfile requires WithObs")
		}
		opts.Obs.AttachContention(opts.Profile)
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := attachChaos(m, opts); err != nil {
		return nil, nil, err
	}
	res, err := m.Run(programs)
	if err != nil {
		return nil, nil, err
	}
	read := func(addr uint64) uint64 { return m.Sys.Data.Load(memory.Addr(addr)) }
	return res, read, nil
}
