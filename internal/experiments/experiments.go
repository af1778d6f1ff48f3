// Package experiments regenerates every table and figure of the paper's
// evaluation section. Each experiment returns its data as a formatted
// table plus machine-readable rows; the dynamo-experiments command prints
// them, and EXPERIMENTS.md records paper-vs-measured values.
//
// All simulations run through internal/runner: identical (workload,
// policy, configuration) requests are deduplicated across every
// experiment in the suite, executed concurrently on a bounded worker
// pool, and — when a cache directory is configured — persisted so a
// repeated suite run simulates nothing. Each simulation is itself
// single-threaded and deterministic, so tables are byte-identical
// regardless of the worker count or cache state.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"dynamo/internal/machine"
	"dynamo/internal/runner"
	"dynamo/internal/service"
	"dynamo/internal/stats"
	"dynamo/internal/telemetry"
	"dynamo/internal/workload"
)

// Options configures a suite run.
type Options struct {
	// Threads is the worker-thread count per simulation (default 32, the
	// paper's core count).
	Threads int
	// Seed drives workload generation (default 1).
	Seed int64
	// Scale multiplies workload sizes (default 1.0). Benchmarks use small
	// scales.
	Scale float64
	// Workers bounds concurrent simulations (default: host cores).
	Workers int
	// CacheDir, when non-empty, persists simulation results on disk (see
	// runner.Options.CacheDir); a warm cache re-simulates nothing.
	CacheDir string
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Retries re-executes transiently failed jobs before quarantine (see
	// runner.Options.Retries).
	Retries int
	// CkptEvery, with a cache directory, checkpoints running jobs every
	// CkptEvery events so a killed suite run can resume.
	CkptEvery uint64
	// Resume restores interrupted jobs from their persisted checkpoints.
	Resume bool
	// Interrupt, when non-nil, cancels the suite once signaled or closed.
	Interrupt <-chan struct{}
	// Telemetry, when non-nil, receives sweep metrics and per-job trace
	// spans (see internal/telemetry); results are unaffected.
	Telemetry *telemetry.Sweep
	// Remote, when non-empty, routes job execution to a sweep service at
	// this address (see internal/service): the local runner keeps its
	// dedupe, cache and telemetry semantics, but every cache-missing
	// simulation runs on the server and comes back as the server's
	// cache-entry bytes, so the tables are byte-identical to a local run.
	Remote string
	// RemoteDeadline, when positive with Remote set, bounds every remote
	// job's wait and rides along as the sweep's wire deadline, so the
	// server abandons work this suite stopped watching.
	RemoteDeadline time.Duration
}

func (o Options) fill() Options {
	if o.Threads == 0 {
		o.Threads = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// Suite runs experiments on a shared sweep runner, so Best Static bars,
// shared baselines and repeated sweeps are simulated once.
type Suite struct {
	opts Options
	r    *runner.Runner
}

// runKey identifies one cached simulation within the suite; the runner
// adds the suite-wide seed and scale to form the full request.
type runKey struct {
	workload string
	policy   string
	input    string
	threads  int
	// sysVariant names a non-default system configuration (Fig. 10/11).
	sysVariant string
}

// NewSuite builds a suite.
func NewSuite(o Options) *Suite {
	o = o.fill()
	ro := runner.Options{
		Jobs:      o.Workers,
		CacheDir:  o.CacheDir,
		Log:       o.Log,
		Retries:   o.Retries,
		CkptEvery: o.CkptEvery,
		Resume:    o.Resume,
		Interrupt: o.Interrupt,
		Telemetry: o.Telemetry,
	}
	if o.Remote != "" {
		client := service.Dial(o.Remote)
		client.Deadline = o.RemoteDeadline
		ro.Execute = client.Execute
	}
	return &Suite{opts: o, r: runner.New(ro)}
}

// Runner exposes the suite's sweep engine (for progress and cache stats).
func (s *Suite) Runner() *runner.Runner { return s.r }

// request expands a suite run key into a full runner request.
func (s *Suite) request(key runKey) runner.Request {
	return runner.Request{
		Workload: key.workload,
		Policy:   key.policy,
		Input:    key.input,
		Threads:  key.threads,
		Seed:     s.opts.Seed,
		Scale:    s.opts.Scale,
		Variant:  key.sysVariant,
	}
}

// run executes (or recalls) one simulation.
func (s *Suite) run(key runKey) (*machine.Result, error) {
	out, err := s.r.Run(s.request(key))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return out.Result, nil
}

// prefetch submits a set of keys so they simulate concurrently on the
// runner's pool; the serial collection loops that follow then read every
// result from the cache in deterministic order.
func (s *Suite) prefetch(keys []runKey) error {
	tasks := make([]*runner.Task, len(keys))
	for i, k := range keys {
		tasks[i] = s.r.Submit(s.request(k))
	}
	for _, t := range tasks {
		if _, err := t.Wait(); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	return nil
}

// submit enqueues pre-built requests and waits for all of them.
func (s *Suite) submit(reqs []runner.Request) error {
	tasks := make([]*runner.Task, len(reqs))
	for i, q := range reqs {
		tasks[i] = s.r.Submit(q)
	}
	for _, t := range tasks {
		if _, err := t.Wait(); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	return nil
}

// classSets returns the workload names of the LMH, MH and H sets.
func classSets() (lmh, mh, h []string) {
	for _, spec := range workload.All() {
		lmh = append(lmh, spec.Name)
		if spec.Class == workload.Medium || spec.Class == workload.High {
			mh = append(mh, spec.Name)
		}
		if spec.Class == workload.High {
			h = append(h, spec.Name)
		}
	}
	return lmh, mh, h
}

// geomeanOver computes the geometric-mean speedup of a policy over the
// baseline across the given workloads, from cached results.
func (s *Suite) geomeanOver(names []string, speedups map[string]float64) float64 {
	xs := make([]float64, 0, len(names))
	for _, n := range names {
		if v, ok := speedups[n]; ok {
			xs = append(xs, v)
		}
	}
	return stats.Geomean(xs)
}

// Experiment describes one runnable experiment for the CLI.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Suite) (*stats.Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1: near vs far AMO throughput", (*Suite).Figure1},
		{"table1", "Table I: static AMO policies", (*Suite).TableI},
		{"table2", "Table II: system configuration", (*Suite).TableII},
		{"table3", "Table III: benchmark characteristics", (*Suite).TableIII},
		{"fig6", "Figure 6: AMOs per kilo-instruction", (*Suite).Figure6},
		{"fig7", "Figure 7: static policy speed-ups", (*Suite).Figure7},
		{"fig8", "Figure 8: DynAMO speed-ups", (*Suite).Figure8},
		{"fig9", "Figure 9: input sensitivity", (*Suite).Figure9},
		{"energy", "Section VI-E: dynamic energy", (*Suite).Energy},
		{"fig10", "Figure 10: AMT sizing", (*Suite).Figure10},
		{"hwcost", "Section VI-G: hardware cost", (*Suite).HardwareCost},
		{"fig11", "Figure 11: system design space", (*Suite).Figure11},
		{"table4", "Table IV: synchronization alternatives", (*Suite).TableIV},
		{"ablation", "Ablations: AMO buffer, atomic queue, HN pipeline, prefetcher", (*Suite).Ablations},
		{"dse", "Section IV: static-policy design space (8 practical candidates)", (*Suite).DesignSpace},
		{"latency", "Latency breakdown: per-class and per-phase transaction latency", (*Suite).LatencyBreakdown},
		{"profile", "Contention profile: hottest AMO cache lines with site attribution", (*Suite).ContentionProfile},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
