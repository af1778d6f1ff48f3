// Package machine assembles the full simulated system — cores, request
// nodes, home nodes, mesh and memory — from a single configuration
// mirroring Table II of the paper, runs workload programs on it to
// completion, and collects the statistics the experiment harness consumes.
package machine

import (
	"encoding/json"
	"fmt"
	"io"

	"dynamo/internal/chaos"
	"dynamo/internal/check"
	"dynamo/internal/checkpoint"
	"dynamo/internal/chi"
	"dynamo/internal/core"
	"dynamo/internal/cpu"
	"dynamo/internal/energy"
	"dynamo/internal/hbm"
	"dynamo/internal/memory"
	"dynamo/internal/noc"
	"dynamo/internal/obs"
	"dynamo/internal/obs/profile"
	"dynamo/internal/perf"
	"dynamo/internal/sim"
	"dynamo/internal/stats"
)

// Config selects the system, the AMO placement policy, and run limits.
type Config struct {
	Chi    chi.Config
	CPU    cpu.Config
	AMT    core.AMTConfig
	Policy string
	// MaxEvents bounds a run; exceeding it returns ErrTimeout. Zero means
	// the package default (500M events).
	MaxEvents uint64
	// Energy customizes the energy model; zero value selects the default.
	Energy energy.Model
	// Obs, when non-nil, collects transaction-level observability data
	// (latency histograms, optional timeline) from every component. The
	// run's digest lands in Result.Obs.
	Obs *obs.Bus
	// Perf, when non-nil, attaches the host-performance self-profiler to
	// the engine: every kernel event is attributed to its scheduling
	// subsystem (wall-clock sampled), and the run's host digest lands in
	// Result.HostPerf. Purely observational — simulated results are
	// bit-identical with profiling on or off.
	Perf *perf.Profiler
	// Interval, when non-nil, receives a cumulative counter sample every
	// Recorder period during the run plus one final sample at drain time,
	// yielding the interval time-series (instructions, per-class latency,
	// link utilisation, HBM bandwidth, AMT hit-rate). Class latency and
	// counter deltas additionally require Obs.
	Interval *profile.Recorder
	// Check, when non-nil, attaches the runtime protocol sanitizer: SWMR
	// and directory audits on release and at Check.Interval events,
	// MSHR/transaction-table occupancy bounds, and end-of-run quiescence
	// and leak audits. A violation aborts the run with a *check.Violation;
	// a clean run reports its audit counters in Result.Check. The zero
	// Config selects every default.
	Check *check.Config
	// ChaosSeed and ChaosLevel, when either is non-zero, attach the
	// deterministic fault injector (internal/chaos): protocol-legal timing
	// perturbations at intensity 1..chaos.MaxLevel, with the pair
	// defaulted by chaos.Normalize. Functional results are unaffected; the
	// injector's stream positions are checkpointed under "chaos".
	ChaosSeed  int64
	ChaosLevel int
	// WatchdogEvents is the forward-progress window: if no core commits an
	// instruction for this many engine events, the run is abandoned with
	// ErrStalled and a machine diagnostic. Zero selects the package
	// default (20M events); the watchdog is always on because a livelocked
	// run otherwise burns the full MaxEvents budget before reporting.
	WatchdogEvents uint64
	// CkptEvery, when nonzero with CkptSink set, captures a checkpoint
	// every CkptEvery executed events.
	CkptEvery uint64
	// CkptSink receives periodic checkpoints (see CkptEvery) plus the
	// final checkpoint of an interrupted run. Capture is read-only, so a
	// sink never perturbs the simulation.
	CkptSink func(*checkpoint.Checkpoint)
	// CkptDue, when non-nil, gates periodic capture: at each CkptEvery
	// boundary the run captures only if CkptDue returns true. A fleet
	// worker arms it at each heartbeat, so it captures only checkpoints a
	// heartbeat will ship. Nil captures at every boundary. The boundaries
	// themselves, and the final checkpoint of an interrupted run, do not
	// depend on it.
	CkptDue func() bool
	// CkptIdentity names the run in captured checkpoints (the runner uses
	// the request digest); RunFrom rejects a checkpoint whose identity
	// differs.
	CkptIdentity string
	// Interrupt, when non-nil, is polled during the run: once it is
	// signaled or closed, the run captures a final checkpoint to CkptSink
	// and aborts with ErrInterrupted.
	Interrupt <-chan struct{}
}

// DefaultConfig reproduces Table II scaled to cycle-level first-order
// models: 32 Neoverse-like cores on an 8x8 mesh with 32 HN slices,
// 64 KiB/4-way L1D (2-cycle), 512 KiB/8-way private L2 (8-cycle),
// 32x1 MiB/8-way exclusive LLC (10-cycle data arrays), a 128-entry 4-way
// AMT, and 8-channel HBM3-class memory.
func DefaultConfig() Config {
	return Config{
		Chi: chi.Config{
			Cores:           32,
			HNSlices:        32,
			L1Sets:          256, // 64 KiB / 64 B / 4 ways
			L1Ways:          4,
			L2Sets:          1024, // 512 KiB / 64 B / 8 ways
			L2Ways:          8,
			LLCSets:         2048, // 1 MiB / 64 B / 8 ways per slice
			LLCWays:         8,
			AMOBufEntries:   16,
			L1Latency:       2,
			L2Latency:       8,
			DirLatency:      2,
			LLCDataLatency:  10,
			ALULatency:      1,
			AMOBufLatency:   1,
			FarAMOOccupancy: 8,
			Mesh:            noc.Config{Width: 8, Height: 8, RouteLatency: 1, LinkLatency: 1},
			Mem:             hbm.Config{Channels: 8, Latency: 100, LineOccupancy: 2},
		},
		CPU:    cpu.DefaultConfig(),
		AMT:    core.DefaultAMTConfig(),
		Policy: "all-near",
	}
}

const (
	defaultMaxEvents = 500_000_000
	// defaultWatchdogEvents is the no-commit window before a run is
	// declared stalled. The largest legal quiet stretches (a full HBM
	// queue drain, a cold AMT warmup) are orders of magnitude shorter.
	defaultWatchdogEvents = 20_000_000
	// progressStride is how often (in events) the run loop re-checks
	// forward progress and audit deadlines; a power of two keeps the
	// per-event condition cheap.
	progressStride = 1 << 16
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Chi.Validate(); err != nil {
		return err
	}
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.AMT.Validate(); err != nil {
		return err
	}
	if err := core.Check(c.Policy, c.Chi.Cores, c.AMT); err != nil {
		return err
	}
	if c.ChaosLevel < 0 || c.ChaosLevel > chaos.MaxLevel {
		return fmt.Errorf("machine: chaos level %d out of range 0..%d", c.ChaosLevel, chaos.MaxLevel)
	}
	return nil
}

// ErrTimeout reports a run that exceeded its event budget.
var ErrTimeout = fmt.Errorf("machine: run exceeded its event budget")

// ErrInterrupted reports a run aborted by Config.Interrupt. It is
// returned bare (no RunError diagnostic): the machine state is healthy,
// and a final checkpoint was offered to Config.CkptSink before the abort.
var ErrInterrupted = fmt.Errorf("machine: run interrupted")

// Result summarizes one completed run.
type Result struct {
	Policy string
	// Cycles is the makespan: the cycle the last program finished.
	Cycles sim.Tick
	// Instructions is the total committed across all cores.
	Instructions uint64
	AMOs         uint64
	AMOLoads     uint64 // value-returning AMOs
	AMOStores    uint64 // no-return AMOs
	NearLocal    uint64 // AMOs completed on an already-unique L1 line
	NearTxn      uint64 // AMOs that fetched the line via ReadUnique
	Far          uint64 // AMOs executed at the home node
	// APKI is AMOs per kilo-instruction (Fig. 6's metric).
	APKI float64
	// AvgAMOLatency is the mean issue-to-complete AMO latency in cycles.
	AvgAMOLatency float64
	// SimEvents is the total number of kernel events the run executed,
	// including the post-completion drain — the coordinate space of
	// checkpoint split points and bisection windows.
	SimEvents uint64
	Events    energy.Events
	Energy    energy.Breakdown
	NoC       noc.Stats
	Mem       hbm.Stats
	// Obs digests the run's observability data (latency histograms per
	// transaction class and phase, occupancy spans, predictor counters).
	// Nil unless the machine was built with Config.Obs.
	Obs *obs.Report
	// Check summarizes the protocol sanitizer's audits and occupancy
	// maxima. Nil unless the machine was built with Config.Check; always
	// Clean when present (a violated run errors instead).
	Check *check.Report
	// HostPerf is the host-performance self-profile (events/sec,
	// wall-clock attribution, heap deltas). Nil unless the machine was
	// built with Config.Perf. Host wall-clock is non-deterministic, so
	// the report is excluded from JSON serialization — and therefore from
	// result snapshots, cache entries and every deterministic digest.
	HostPerf *perf.Report `json:"-"`
	// Detail carries every raw counter for reports and debugging.
	Detail *stats.Group
}

// Arena is the storage one runner or fleet-worker slot recycles across
// the machines it builds, one at a time: cache arrays, the predictor's
// AMTs and the functional memory image. A machine built from an arena
// (NewIn) hands them back with m.Sys.Recycle (see chi.Arena).
type Arena = chi.Arena

// Machine is a built system ready to run one set of programs.
type Machine struct {
	Cfg    Config
	Sys    *chi.System
	Policy chi.Policy
	model  energy.Model
	// chaos is the attached fault injector; nil when chaos is off.
	chaos *chaos.Injector
	// rs is the state of the in-progress run; nil before begin.
	rs *runState
}

// runState carries one run's loop state across drive calls, so a run can
// pause at an event index (checkpoint capture), resume, and still make
// exactly the same per-event decisions as an uninterrupted run.
type runState struct {
	programs []cpu.Program
	cores    []*cpu.Core
	finished int
	// ended stops the aging and sampling ticks once the run leaves the
	// main loop (so the drain does not keep rescheduling them).
	ended bool

	budget   uint64
	watchdog uint64

	auditEvery   uint64
	nextAudit    uint64
	lastInstr    uint64
	lastProgress uint64
	nextCheck    uint64
	nextCkpt     uint64

	// pauseAt, when nonzero, makes the run loop pause (cond true, paused
	// set) at the first event index >= pauseAt.
	pauseAt uint64
	// replaying suppresses checkpoint sinking while RunFrom replays the
	// prefix of a restored run.
	replaying bool

	stalled     bool
	paused      bool
	interrupted bool
}

// New builds a machine from cfg, constructing the policy from its
// registered name.
func New(cfg Config) (*Machine, error) { return NewIn(cfg, nil, nil) }

// NewIn builds a machine around policy or, when policy is nil, around
// cfg.Policy from the registry. Its cache arrays, a registry predictor's
// AMTs included, and its memory image come from a, where the last
// machine built from a handed them back (chi.System.Recycle); a nil
// arena allocates them. A machine built from an arena starts exactly as
// a new one does. What its runs return (results, checkpoints,
// diagnostics) holds copies, never arena storage, so it outlives
// m.Sys.Recycle.
func NewIn(cfg Config, policy chi.Policy, a *Arena) (*Machine, error) {
	if policy == nil {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		p, err := core.NewIn(cfg.Policy, cfg.Chi.Cores, cfg.AMT, a.Arrays())
		if err != nil {
			return nil, err
		}
		policy = p
	}
	cfg.Policy = policy.Name()
	cfg.Chi.Obs = cfg.Obs
	cfg.CPU.Obs = cfg.Obs
	if cfg.Obs != nil {
		if ao, ok := policy.(interface{ AttachObs(*obs.Bus) }); ok {
			ao.AttachObs(cfg.Obs)
		}
	}
	sys, err := chi.NewSystemIn(cfg.Chi, policy, a)
	if err != nil {
		return nil, err
	}
	if cfg.Perf != nil {
		sys.Engine.AttachPerf(cfg.Perf)
	}
	if cfg.Check != nil {
		sys.EnableCheck(check.New(*cfg.Check))
	}
	// The injector's hooks and its first pressure tick go in before the
	// run schedules anything, so every event keeps its sequence number.
	var inj *chaos.Injector
	cfg.ChaosSeed, cfg.ChaosLevel = chaos.Normalize(cfg.ChaosSeed, cfg.ChaosLevel)
	if cfg.ChaosLevel != 0 {
		if inj, err = chaos.New(cfg.ChaosSeed, cfg.ChaosLevel); err != nil {
			return nil, err
		}
		inj.Attach(sys, policy)
	}
	model := cfg.Energy
	if model == (energy.Model{}) {
		model = energy.DefaultModel()
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Machine{Cfg: cfg, Sys: sys, Policy: policy, model: model, chaos: inj}, nil
}

// agingPeriod is how often (in cycles) aging-capable predictors halve
// their counters, per Section V-B's phase-adaptivity argument.
const agingPeriod = 50_000

// ager is implemented by predictors with periodic counter decay.
type ager interface{ Age() }

// Run executes one program per core (len(programs) <= cores) until all
// finish, and returns the collected result. A Machine is single-use: build
// a fresh one per run.
func (m *Machine) Run(programs []cpu.Program) (*Result, error) {
	if err := m.begin(programs); err != nil {
		return nil, err
	}
	return m.Resume()
}

// RunTo executes programs until the kernel has run at least event events,
// pausing there. It returns (nil, nil) when paused — call Checkpoint to
// capture the state and Resume to continue — or the final result if the
// programs completed before reaching event (Paused reports which).
func (m *Machine) RunTo(programs []cpu.Program, event uint64) (*Result, error) {
	if err := m.begin(programs); err != nil {
		return nil, err
	}
	m.rs.pauseAt = event
	return m.drive()
}

// Paused reports whether the run is paused at an event index (RunTo
// reached its target, the programs still running).
func (m *Machine) Paused() bool { return m.rs != nil && m.rs.paused }

// Resume continues a paused run to completion.
func (m *Machine) Resume() (*Result, error) {
	if m.rs == nil {
		return nil, fmt.Errorf("machine: Resume without a begun run")
	}
	m.rs.pauseAt = 0
	m.rs.paused = false
	res, err := m.drive()
	if err != nil {
		return nil, err
	}
	if res == nil {
		// A pause target was re-armed mid-resume; callers of Resume always
		// drive to completion, so this indicates misuse.
		return nil, fmt.Errorf("machine: run paused during Resume")
	}
	return res, nil
}

// RunFrom restores a checkpoint: it rebuilds the run from its programs,
// replays the deterministic event stream to the checkpoint's event index,
// cross-validates the reconstructed state against the stored digest
// bit-exactly, and continues to completion. The machine must have been
// built with the same configuration (chaos included) as the run that
// captured the checkpoint; a reconstruction mismatch returns
// checkpoint.ErrDiverged, an identity mismatch checkpoint.ErrIncompatible.
func (m *Machine) RunFrom(programs []cpu.Program, ck *checkpoint.Checkpoint) (*Result, error) {
	if ck == nil {
		return nil, fmt.Errorf("machine: RunFrom with nil checkpoint")
	}
	if err := ck.Compatible(m.Cfg.CkptIdentity); err != nil {
		return nil, err
	}
	if err := m.begin(programs); err != nil {
		return nil, err
	}
	m.rs.pauseAt = ck.Event
	m.rs.replaying = true
	res, err := m.drive()
	if err != nil {
		return nil, err
	}
	if res != nil {
		// The original run had not completed at ck.Event (it captured a
		// checkpoint there), so completing earlier is a divergence.
		m.abortCores()
		return nil, fmt.Errorf("%w: replay completed at event %d, before the checkpoint's event %d",
			checkpoint.ErrDiverged, m.Sys.Engine.Executed(), ck.Event)
	}
	st, err := m.captureState()
	if err != nil {
		m.abortCores()
		return nil, err
	}
	digest, err := checkpoint.DigestState(&st)
	if err != nil {
		m.abortCores()
		return nil, err
	}
	if digest != ck.StateDigest {
		m.abortCores()
		return nil, fmt.Errorf("%w: state digest %s at event %d, checkpoint has %s",
			checkpoint.ErrDiverged, digest[:12], ck.Event, ck.StateDigest[:12])
	}
	m.rs.replaying = false
	if m.Cfg.CkptEvery > 0 {
		m.rs.nextCkpt = ck.Event + m.Cfg.CkptEvery
	}
	return m.Resume()
}

// Checkpoint captures the paused run's complete state and serializes it
// to w. Only a paused run (RunTo) has a well-defined event index to
// checkpoint at; periodic and interrupt checkpoints go through
// Config.CkptSink instead.
func (m *Machine) Checkpoint(w io.Writer) error {
	ck, err := m.captureCheckpoint()
	if err != nil {
		return err
	}
	return checkpoint.Write(w, ck)
}

// Restore parses and structurally validates a serialized checkpoint; pass
// the result to RunFrom. Schema drift returns checkpoint.ErrIncompatible,
// parse and digest failures checkpoint.ErrCorrupt.
func Restore(r io.Reader) (*checkpoint.Checkpoint, error) {
	return checkpoint.Read(r)
}

// begin builds the run state: cores, aging and sampling ticks, watchdog
// and audit bookkeeping. It is the shared front half of Run/RunTo/RunFrom.
func (m *Machine) begin(programs []cpu.Program) error {
	if len(programs) == 0 || len(programs) > m.Cfg.Chi.Cores {
		return fmt.Errorf("machine: %d programs for %d cores", len(programs), m.Cfg.Chi.Cores)
	}
	if m.rs != nil {
		return fmt.Errorf("machine: already ran — a Machine is single-use")
	}
	eng := m.Sys.Engine
	rs := &runState{programs: programs, cores: make([]*cpu.Core, len(programs))}
	m.rs = rs
	// Anchor the host-perf measurement window at the run's start, so the
	// report excludes machine construction (nil-safe when profiling is off).
	m.Cfg.Perf.Start()
	if a, ok := m.Policy.(ager); ok {
		var tick func()
		tick = func() {
			if rs.ended {
				return // let the queue drain after the run completes
			}
			a.Age()
			eng.ScheduleKind(agingPeriod, perf.KindTick, tick)
		}
		eng.ScheduleKind(agingPeriod, perf.KindTick, tick)
	}
	if rec := m.Cfg.Interval; rec != nil && rec.Period() > 0 {
		var tick func()
		tick = func() {
			if rs.ended {
				return
			}
			m.sample(rec, rs.cores)
			eng.ScheduleKind(rec.Period(), perf.KindTick, tick)
		}
		eng.ScheduleKind(rec.Period(), perf.KindTick, tick)
	}
	for i, p := range programs {
		c, err := cpu.New(m.Cfg.CPU, eng, m.Sys.RNs[i], p, func() { rs.finished++ })
		if err != nil {
			m.abortCores()
			return err
		}
		rs.cores[i] = c
		c.Start(0)
	}
	rs.budget = m.Cfg.MaxEvents
	if rs.budget == 0 {
		rs.budget = defaultMaxEvents
	}
	rs.watchdog = m.Cfg.WatchdogEvents
	if rs.watchdog == 0 {
		rs.watchdog = defaultWatchdogEvents
	}
	rs.auditEvery = m.Sys.Check.Interval()
	rs.nextAudit = eng.Executed() + rs.auditEvery
	rs.lastInstr = m.instrTotal()
	rs.lastProgress = eng.Executed()
	rs.nextCheck = eng.Executed() + progressStride
	if m.Cfg.CkptEvery > 0 {
		rs.nextCkpt = eng.Executed() + m.Cfg.CkptEvery
	}
	return nil
}

// instrTotal sums committed instructions across the run's cores.
func (m *Machine) instrTotal() uint64 {
	var n uint64
	for _, c := range m.rs.cores {
		if c != nil {
			n += c.Instructions
		}
	}
	return n
}

// abortCores unwinds every program coroutine of an abandoned run.
func (m *Machine) abortCores() {
	for _, c := range m.rs.cores {
		if c != nil {
			c.Abort()
		}
	}
}

// drive runs the kernel until the programs complete, the pause target is
// reached, or the run fails. It is the shared back half of
// Run/RunTo/RunFrom/Resume; all loop state lives in m.rs, so a
// pause/resume sequence makes exactly the same per-event decisions — and
// therefore produces bit-identical state — as an uninterrupted run.
func (m *Machine) drive() (*Result, error) {
	rs := m.rs
	eng := m.Sys.Engine
	// A program's panic re-raises here, from the core that resumed it.
	// Unwind the other programs' coroutines before it propagates, so a
	// caller that recovers it (the sweep runner) leaks none of them.
	defer func() {
		if r := recover(); r != nil {
			rs.ended = true
			m.abortCores()
			panic(r)
		}
	}()

	// The run condition doubles as the forward-progress watchdog, the
	// periodic-audit driver, the auto-checkpoint trigger and the interrupt
	// poll; every progressStride events it re-reads the
	// committed-instruction total and walks its periodic duties. The
	// pause check runs every event (pause targets are not
	// stride-quantized) and precedes the strided block, so a paused-and-
	// resumed run executes the block exactly once per stride boundary,
	// like an uninterrupted run.
	cond := func() bool {
		if rs.finished == len(rs.programs) {
			return true
		}
		x := eng.Executed()
		if rs.pauseAt > 0 && x >= rs.pauseAt {
			rs.paused = true
			return true
		}
		// Auto-checkpoints fire at event granularity, not stride
		// granularity, so short runs still checkpoint. Capture is
		// read-only, so it cannot perturb the replayed event stream.
		if m.Cfg.CkptEvery > 0 && m.Cfg.CkptSink != nil && !rs.replaying && x >= rs.nextCkpt {
			rs.nextCkpt = x + m.Cfg.CkptEvery
			if m.Cfg.CkptDue == nil || m.Cfg.CkptDue() {
				if ck, err := m.captureCheckpoint(); err == nil {
					m.Cfg.CkptSink(ck)
				}
			}
		}
		if x < rs.nextCheck {
			return false
		}
		rs.nextCheck = x + progressStride
		if n := m.instrTotal(); n != rs.lastInstr {
			rs.lastInstr = n
			rs.lastProgress = x
		} else if x-rs.lastProgress >= rs.watchdog {
			rs.stalled = true
			return true
		}
		if rs.auditEvery > 0 && x >= rs.nextAudit {
			rs.nextAudit = x + rs.auditEvery
			m.Sys.Fail(m.Sys.AuditCoherence())
		}
		if m.Cfg.Interrupt != nil && !rs.interrupted {
			select {
			case <-m.Cfg.Interrupt:
				rs.interrupted = true
				return true
			default:
			}
		}
		return false
	}
	// The event budget is cumulative across pauses: each drive gets what
	// the previous ones left. RunUntil treats 0 as unlimited, so an
	// exhausted budget short-circuits to the timeout path instead.
	var ok bool
	if remaining := rs.budget - eng.Executed(); rs.budget > eng.Executed() {
		ok = eng.RunUntil(cond, remaining)
	}
	fail := func(cause error) (*Result, error) {
		rs.ended = true
		m.abortCores()
		if v, isViolation := cause.(*check.Violation); isViolation {
			// A violation is its own diagnostic: it carries the protocol
			// trail, and the machine state after it is not trustworthy.
			return nil, v
		}
		return nil, &RunError{Cause: cause, Diag: m.diagnose(rs.finished, len(rs.programs), rs.cores)}
	}
	if v := m.Sys.Violation; v != nil {
		return fail(v)
	}
	if rs.stalled {
		return fail(ErrStalled)
	}
	if rs.interrupted {
		// Capture the final checkpoint before aborting: Abort mutates core
		// state, so it must come second. Interrupted runs return the bare
		// sentinel — the state is healthy and resumable, not diagnostic.
		// Not while replaying, though: a checkpoint captured mid-replay
		// sits at an earlier event than the one being replayed toward, and
		// sinking it would regress the persisted checkpoint — under rapid
		// preemption, far enough to livelock the job.
		if m.Cfg.CkptSink != nil && !rs.replaying {
			if ck, err := m.captureCheckpoint(); err == nil {
				m.Cfg.CkptSink(ck)
			}
		}
		rs.ended = true
		m.abortCores()
		return nil, ErrInterrupted
	}
	if rs.paused {
		return nil, nil
	}
	if !ok {
		if rs.finished < len(rs.programs) && eng.Pending() == 0 {
			return fail(fmt.Errorf("machine: deadlock — %d/%d programs finished and no events pending",
				rs.finished, len(rs.programs)))
		}
		return fail(ErrTimeout)
	}
	rs.ended = true
	eng.Run(0) // drain writebacks and in-flight background work
	if v := m.Sys.Violation; v != nil {
		// Release-time audits keep running while the queue drains.
		return fail(v)
	}
	if m.Sys.Check != nil {
		if v := m.Sys.AuditCoherence(); v != nil {
			return fail(v)
		}
		if v := m.Sys.AuditDrained(); v != nil {
			return fail(v)
		}
		if leaks := m.Sys.Obs.Leaks(); len(leaks) > 0 {
			return fail(check.LeakViolation(eng.Now(), leaks))
		}
	}
	if rec := m.Cfg.Interval; rec != nil {
		// Close the partial tail interval so the series covers the full run.
		m.sample(rec, rs.cores)
	}
	return m.collect(rs.cores), nil
}

// captureState assembles the complete serializable machine image. Every
// read is side-effect free (cache Range/Peek, stats copies, pure
// reports), so capture never perturbs the simulation.
func (m *Machine) captureState() (checkpoint.State, error) {
	st := checkpoint.State{
		Engine: m.Sys.Engine.Snapshot(),
		NoC:    m.Sys.Mesh.Snapshot(),
		Mem:    m.Sys.Mem.Snapshot(),
		Data:   m.Sys.Data.Words(),
		Check:  m.Sys.Check.Report(),
		Obs:    m.Sys.Obs.Report(),
	}
	for _, c := range m.rs.cores {
		st.Cores = append(st.Cores, c.Snapshot())
	}
	for _, rn := range m.Sys.RNs {
		st.RNs = append(st.RNs, rn.Snapshot())
	}
	for _, hn := range m.Sys.HNs {
		st.HNs = append(st.HNs, hn.Snapshot())
	}
	if p, ok := m.Policy.(interface{ CheckpointState() any }); ok {
		raw, err := json.Marshal(p.CheckpointState())
		if err != nil {
			return checkpoint.State{}, fmt.Errorf("machine: encode policy state: %w", err)
		}
		st.Policy = raw
	}
	if m.chaos != nil {
		raw, err := json.Marshal(m.chaos.State())
		if err != nil {
			return checkpoint.State{}, fmt.Errorf("machine: encode chaos state: %w", err)
		}
		st.Extra = map[string]json.RawMessage{"chaos": raw}
	}
	return st, nil
}

// captureCheckpoint captures the current state as a digested checkpoint.
func (m *Machine) captureCheckpoint() (*checkpoint.Checkpoint, error) {
	if m.rs == nil {
		return nil, fmt.Errorf("machine: checkpoint requires a begun run")
	}
	st, err := m.captureState()
	if err != nil {
		return nil, err
	}
	return checkpoint.New(m.Cfg.CkptIdentity, m.Sys.Engine.Executed(), st)
}

// sample feeds one cumulative counter reading to the interval recorder.
func (m *Machine) sample(rec *profile.Recorder, cores []*cpu.Core) {
	s := profile.Sample{
		Links:     m.Sys.Mesh.Links(),
		LineBytes: memory.LineSize,
	}
	for _, c := range cores {
		if c != nil {
			s.Instructions += c.Instructions
		}
	}
	s.FlitHops = m.Sys.Mesh.Stats().FlitHops
	mem := m.Sys.Mem.Stats()
	s.HBMReads, s.HBMWrites = mem.Reads, mem.Writes
	rec.Observe(m.Sys.Engine.Now(), s, m.Sys.Obs.Histograms())
}

// collect aggregates statistics into a Result.
func (m *Machine) collect(cores []*cpu.Core) *Result {
	r := &Result{Policy: m.Cfg.Policy, Detail: stats.NewGroup()}
	r.SimEvents = m.Sys.Engine.Executed()
	var amoLatencySum, latencySamples uint64
	for _, c := range cores {
		r.Instructions += c.Instructions
		if c.FinishedAt > r.Cycles {
			r.Cycles = c.FinishedAt
		}
	}
	var ev energy.Events
	for _, rn := range m.Sys.RNs {
		s := rn.Stats
		r.AMOs += s.AMOs
		r.AMOLoads += s.AMOLoadOps
		r.AMOStores += s.AMOStoreOps
		r.NearLocal += s.AMONearLocal
		r.NearTxn += s.AMONearTxn
		r.Far += s.AMOFar
		amoLatencySum += s.AMOLatencySum
		latencySamples += s.AMOs
		ev.L1Accesses += s.L1Hits + s.L1Misses + s.SnoopsReceived
		ev.L2Accesses += s.L2Hits + s.L2Misses
		r.Detail.Add("rn.loads", s.Loads)
		r.Detail.Add("rn.stores", s.Stores)
		r.Detail.Add("rn.amos", s.AMOs)
		r.Detail.Add("rn.l1.hits", s.L1Hits)
		r.Detail.Add("rn.l1.misses", s.L1Misses)
		r.Detail.Add("rn.l2.hits", s.L2Hits)
		r.Detail.Add("rn.l2.misses", s.L2Misses)
		r.Detail.Add("rn.snoops", s.SnoopsReceived)
		r.Detail.Add("rn.invalidations", s.Invalidations)
		r.Detail.Add("rn.writebacks", s.WriteBacks)
	}
	for _, hn := range m.Sys.HNs {
		s := hn.Stats
		ev.LLCAccesses += s.LLCHits + s.LLCMisses
		ev.DirLookups += s.ReadShared + s.ReadUnique + s.WriteBacks + s.Atomics
		ev.AMOBufAccesses += s.AMOBufHits + s.AMOBufMisses
		ev.ALUOps += s.Atomics
		r.Detail.Add("hn.readshared", s.ReadShared)
		r.Detail.Add("hn.readunique", s.ReadUnique)
		r.Detail.Add("hn.writebacks", s.WriteBacks)
		r.Detail.Add("hn.atomics", s.Atomics)
		r.Detail.Add("hn.llc.hits", s.LLCHits)
		r.Detail.Add("hn.llc.misses", s.LLCMisses)
		r.Detail.Add("hn.amobuf.hits", s.AMOBufHits)
		r.Detail.Add("hn.snoops.sent", s.SnoopsSent)
	}
	r.NoC = m.Sys.Mesh.Stats()
	r.Mem = m.Sys.Mem.Stats()
	ev.FlitHops = r.NoC.FlitHops
	ev.MemAccesses = r.Mem.Reads + r.Mem.Writes
	r.Events = ev
	r.Energy = m.model.Compute(ev)
	if r.Instructions > 0 {
		r.APKI = float64(r.AMOs) / float64(r.Instructions) * 1000
	}
	if latencySamples > 0 {
		r.AvgAMOLatency = float64(amoLatencySum) / float64(latencySamples)
	}
	r.Detail.Add("noc.messages", r.NoC.Messages)
	r.Detail.Add("noc.flits", r.NoC.Flits)
	r.Detail.Add("noc.flithops", r.NoC.FlitHops)
	r.Detail.Add("mem.reads", r.Mem.Reads)
	r.Detail.Add("mem.writes", r.Mem.Writes)
	if m.Sys.Obs != nil {
		r.Obs = m.Sys.Obs.Report()
	}
	r.Check = m.Sys.Check.Report()
	if r.HostPerf = m.Cfg.Perf.Report(); r.HostPerf != nil {
		for _, c := range cores {
			r.HostPerf.Resumes += c.Resumes
		}
	}
	return r
}
