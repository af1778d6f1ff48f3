// Package dynamo is the public API of the DynAMO reproduction: a
// cycle-level simulator of a 32-core AMBA 5 CHI system with near and far
// atomic memory operations, the static AMO placement policies of Table I,
// the DynAMO predictors of Section V, and the 21 workload analogs the
// paper evaluates.
//
// Quick start:
//
//	s, err := dynamo.New(dynamo.DefaultConfig(),
//		dynamo.WithPolicy("dynamo-reuse-pn"),
//		dynamo.WithThreads(32))
//	if err != nil { ... }
//	res, err := s.Run("histogram")
//	fmt.Printf("%d cycles, APKI %.1f\n", res.Cycles, res.APKI)
//
// For sweeps over many (workload, policy) pairs, use Runner: it dedupes
// identical runs, executes on a bounded worker pool, and persists results
// so repeated sweeps simulate nothing.
//
// Every run validates the workload's functional result (histograms sum,
// sorted output is sorted, BFS distances match a serial reference), so a
// lost atomic update anywhere in the simulated protocol fails the run.
package dynamo

import (
	"dynamo/internal/check"
	"dynamo/internal/core"
	"dynamo/internal/cpu"
	"dynamo/internal/machine"
	"dynamo/internal/obs"
	"dynamo/internal/obs/profile"
	"dynamo/internal/perf"
	"dynamo/internal/sim"
	"dynamo/internal/workload"
)

// Config is the full system configuration (Table II defaults).
type Config = machine.Config

// Result summarizes a completed run.
type Result = machine.Result

// DefaultConfig returns the paper's Table II system: 32 out-of-order
// cores, 64 KiB L1D + 512 KiB L2 per core, 32x1 MiB exclusive LLC slices
// on an 8x8 mesh, and 8-channel HBM3-class memory.
func DefaultConfig() Config { return machine.DefaultConfig() }

// Policies returns the registered placement policy names: the five static
// policies of Table I plus the three DynAMO predictors.
func Policies() []string { return core.Names() }

// StaticPolicies returns the Table I policy names in table order.
func StaticPolicies() []string { return core.StaticNames() }

// DynamicPolicies returns the DynAMO predictor names.
func DynamicPolicies() []string { return core.DynamicNames() }

// Workloads returns the 21 Table III workload names in paper order.
func Workloads() []string { return workload.TableIIIOrder() }

// WorkloadInfo describes one registered workload.
type WorkloadInfo struct {
	Name  string
	Code  string
	Suite string
	Sync  string
	// Class is "L", "M" or "H" — the APKI intensity set of Fig. 6.
	Class string
	// Inputs lists the accepted input variants (first is the default).
	Inputs []string
}

// DescribeWorkload returns metadata for a workload name.
func DescribeWorkload(name string) (WorkloadInfo, error) {
	s, err := workload.Get(name)
	if err != nil {
		return WorkloadInfo{}, err
	}
	return WorkloadInfo{
		Name: s.Name, Code: s.Code, Suite: s.Suite, Sync: s.Sync,
		Class: s.Class.String(), Inputs: s.Inputs,
	}, nil
}

// ObsBus collects transaction-level observability data during a run: latency
// histograms per transaction class and pipeline phase, component-occupancy
// spans, predictor telemetry and, optionally, a Chrome trace-event timeline.
type ObsBus = obs.Bus

// ObsReport is the deterministic digest of a run's observability data,
// attached to Result.Obs when a bus was attached with WithObs.
type ObsReport = obs.Report

// CheckReport summarizes a sanitized run's audit counters and occupancy
// maxima, attached to Result.Check when the sanitizer was enabled
// (WithCheck). A report is always Clean: a violated run errors instead.
type CheckReport = check.Report

// HostPerfReport is the host-performance self-profile of a run —
// events/sec, ns/event, sampled wall-clock attribution per subsystem,
// event-queue depth and heap deltas — attached to Result.HostPerf when
// profiling was enabled (WithHostPerf). Host wall-clock is inherently
// non-deterministic, so the report is excluded from JSON serialization
// and never enters result caches or checkpoint digests.
type HostPerfReport = perf.Report

// ObsOption configures an observability bus built with NewObs.
type ObsOption func(*obs.Options)

// WithTimeline buffers per-event timeline data for ObsBus.WriteTimeline.
// Memory grows with the run; intended for scaled-down runs that will be
// inspected visually. Histograms and counters are always collected.
func WithTimeline() ObsOption {
	return func(o *obs.Options) { o.Timeline = true }
}

// NewObs creates an observability bus to pass via WithObs. By default
// only histograms and counters are collected; add WithTimeline for the
// Chrome trace-event export.
func NewObs(opts ...ObsOption) *ObsBus {
	var o obs.Options
	for _, opt := range opts {
		opt(&o)
	}
	return obs.New(o)
}

// Profiler is the per-cacheline contention profiler: a bounded top-K table
// of the hottest AMO lines with near/far placement, snoop and HN-occupancy
// detail, attributed to workload sites. Pass one via WithProfile
// (requires WithObs) and call Report or Table afterwards.
type Profiler = profile.Profiler

// NewProfiler creates a contention profiler tracking the k hottest lines
// (0 selects the default of profile.DefaultTopK).
func NewProfiler(k int) *Profiler { return profile.NewProfiler(k) }

// IntervalRecorder collects interval telemetry: every period ticks it
// snapshots instruction, latency, NoC and HBM counters into a bounded ring
// of per-interval records. Pass one via WithInterval and call Series
// afterwards.
type IntervalRecorder = profile.Recorder

// NewIntervalRecorder creates an interval recorder sampling every period
// ticks and keeping at most capacity records (0 selects
// profile.DefaultIntervalCap).
func NewIntervalRecorder(period int64, capacity int) *IntervalRecorder {
	return profile.NewRecorder(sim.Tick(period), capacity)
}

// HotReport is the rendered contention profile: the top-K hottest AMO
// cache lines with site attribution.
type HotReport = profile.HotReport

// ContentionReport renders the profiler's hot-line table, attributing
// lines to the workload sites registered on the bus during the run.
func ContentionReport(p *Profiler, bus *ObsBus) *HotReport {
	return p.Report(bus.SiteOf)
}

// ProbeClasses lists the transaction classes the probe bus distinguishes.
func ProbeClasses() []string {
	var out []string
	for _, c := range obs.AllClasses() {
		out = append(out, c.String())
	}
	return out
}

// ProbePhases lists the transaction pipeline phases the probe bus times.
func ProbePhases() []string {
	var out []string
	for _, p := range obs.AllPhases() {
		out = append(out, p.String())
	}
	return out
}

// ProbeCounters lists the free-form counter names the simulator publishes.
func ProbeCounters() []string { return obs.KnownCounters() }

// ProbeSpans lists the occupancy/stall span names the simulator publishes.
func ProbeSpans() []string { return obs.KnownSpans() }

// Thread is the API custom programs use to issue simulated operations:
// Load, Store, AMO, CAS, AMOStore, Compute, Pause, Fence and the release
// variants. Value-returning operations block the simulated core;
// stores and AtomicStores are posted. Call Thread methods only from the
// goroutine the Program was invoked on: a call may switch the program's
// coroutine back to the simulation, which no other goroutine may do.
//
// A program runs ahead of its core through the operations that return
// nothing: such a call queues its operation and returns at once, and the
// program waits only at a Load, AMO or CAS or once eight operations are
// queued. Each operation still executes at the same simulated cycle, but
// the program's Go code after a posted operation runs before that
// operation executes, though never past a value-returning one. Programs
// must therefore share state only through Thread operations, not through
// Go variables another program or the caller reads while the run is in
// progress. A program's panic can surface at an earlier simulated cycle,
// and the operations it queued before panicking never execute.
type Thread = cpu.Thread

// Program is custom workload code: one function per simulated thread.
type Program = cpu.Program
