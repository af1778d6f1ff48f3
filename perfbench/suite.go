package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dynamo/internal/experiments"
	"dynamo/internal/machine"
	"dynamo/internal/runner"
	"dynamo/internal/telemetry"
	"dynamo/perfbench/measure"
)

// The quick suite: every experiment at 8 threads and scale 0.05, exactly
// what `dynamo-experiments -quick` runs.
const (
	suiteThreads = 8
	suiteScale   = 0.05
	suiteWorkers = 2
)

// warmupSeedOffset keeps set-up traffic off the seeds the window measures,
// so no set-up result is ever a cache hit inside the window.
const warmupSeedOffset = 1000

// quickIDs are all experiment ids in paper order; smokeIDs the single id
// a smoke run uses; warmupIDs the small suite set-up steps run.
var (
	smokeIDs  = []string{"fig1"}
	warmupIDs = []string{"fig1"}
)

func quickIDs() []string {
	var ids []string
	for _, x := range experiments.All() {
		ids = append(ids, x.ID)
	}
	return ids
}

// suiteName names the golden table set for a run's suite size.
func (e *env) suiteName() string {
	if e.smoke {
		return "smoke"
	}
	return "quick"
}

func (e *env) ids() []string {
	if e.smoke {
		return smokeIDs
	}
	return quickIDs()
}

// passSpec is one suite pass: which experiments, which seed, where its
// results persist and, for the fleet, which service runs the jobs.
type passSpec struct {
	ids      []string
	seed     int64
	cacheDir string
	remote   string
	// telemetry records the runner's job spans.
	telemetry bool
}

// pass is one completed suite pass.
type pass struct {
	seed   int64
	dir    string
	wall   time.Duration
	digest string
	stats  runner.Stats
	// jobs are the runner's job spans, when telemetry was on.
	jobs []telemetry.JobSpan
	err  error
}

// runPass runs one suite pass on a fresh suite and runner and renders its
// tables exactly as dynamo-experiments prints them.
func runPass(e *env, p passSpec) pass {
	out := pass{seed: p.seed, dir: p.cacheDir}
	var tel *telemetry.Sweep
	if p.telemetry {
		tel = telemetry.NewSweep(telemetry.SweepOptions{JobTail: 1 << 16})
		defer tel.Close()
	}
	start := time.Now()
	suite := experiments.NewSuite(experiments.Options{
		Threads:   suiteThreads,
		Scale:     suiteScale,
		Seed:      p.seed,
		Workers:   suiteWorkers,
		CacheDir:  p.cacheDir,
		Remote:    p.remote,
		Telemetry: tel,
	})
	var tables bytes.Buffer
	for _, id := range p.ids {
		x, err := experiments.Find(id)
		if err != nil {
			out.err = err
			return out
		}
		t0 := time.Now()
		table, err := x.Run(suite)
		t1 := time.Now()
		e.spans.add("suite", "experiment", id, t0, t1, "seed", fmt.Sprint(p.seed))
		if err != nil {
			out.err = fmt.Errorf("%s: %w", id, err)
			break
		}
		fmt.Fprintf(&tables, "== %s — %s\n\n%s\n", x.ID, x.Title, table)
	}
	end := time.Now()
	out.wall = end.Sub(start)
	e.spans.add("suite", "pass", fmt.Sprintf("pass seed %d", p.seed), start, end)
	out.stats = suite.Runner().Stats()
	sum := sha256.Sum256(tables.Bytes())
	out.digest = hex.EncodeToString(sum[:])
	if tel != nil {
		out.jobs = tel.Tracer().Tail(0)
	}
	return out
}

// checkTables records a pass that failed and compares its tables to the
// golden digest for its seed, when one is recorded.
func (e *env) checkTables(r *result, p pass) {
	if p.err != nil {
		r.problemf("pass seed %d: %v", p.seed, p.err)
		return
	}
	if want, ok := e.golden.lookup(e.suiteName(), p.seed); ok && want != p.digest {
		r.problemf("pass seed %d: tables sha256 %s, golden %s", p.seed, short(p.digest), short(want))
	}
}

// entry is one decoded cache entry.
type entry struct {
	bytes   int
	elapsed time.Duration
	out     *runner.Outcome
}

// readEntries decodes every result a pass left in its cache directory.
func readEntries(dir string) ([]entry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []entry
	for _, path := range paths {
		base := filepath.Base(path)
		if strings.Count(base, ".") != 1 { // skip .failed.json, .ckpt.json
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		o, elapsed, err := runner.DecodeEntry(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", base, err)
		}
		out = append(out, entry{bytes: len(data), elapsed: elapsed, out: o})
	}
	return out, nil
}

// modelTotals sums the simulated statistics of a set of runs. They are
// exact: any change is a change to the simulated machine, not its speed.
type modelTotals struct {
	amos, nearLocal, nearTxn, far uint64
	nocFlits, nocWait             uint64
	hbmReads, hbmWrites, hbmWait  uint64
	cycles, events                uint64
}

func (t *modelTotals) add(r *machine.Result) {
	t.amos += r.AMOs
	t.nearLocal += r.NearLocal
	t.nearTxn += r.NearTxn
	t.far += r.Far
	t.nocFlits += r.NoC.Flits
	t.nocWait += r.NoC.QueueWait
	t.hbmReads += r.Mem.Reads
	t.hbmWrites += r.Mem.Writes
	t.hbmWait += r.Mem.QueueWait
	t.cycles += uint64(r.Cycles)
	t.events += r.SimEvents
}

func (t modelTotals) metrics(m map[string]measure.Value) {
	for name, v := range map[string]uint64{
		"model.amos":                  t.amos,
		"model.near_local":            t.nearLocal,
		"model.near_txn":              t.nearTxn,
		"model.far":                   t.far,
		"model.noc_flits":             t.nocFlits,
		"model.noc_queue_wait_cycles": t.nocWait,
		"model.hbm_reads":             t.hbmReads,
		"model.hbm_writes":            t.hbmWrites,
		"model.hbm_queue_wait_cycles": t.hbmWait,
		"model.cycles":                t.cycles,
		"model.events":                t.events,
	} {
		m[name] = count(v)
	}
}

func count(v uint64) measure.Value { return measure.Value{Value: float64(v), Unit: "count"} }

// runnerLayers derives the runner metrics of a workload
// from its passes: counts from the first pass, latencies from every pass,
// entry sizes and codec costs from the first pass's entries. simulate is
// the slot time spent executing jobs; the rest of the pool's slot time
// over the window is control-plane overhead.
func runnerLayers(m map[string]measure.Value, passes []pass, entries []entry, win window, simulate time.Duration) error {
	first := passes[0].stats
	m["runner.requests"] = count(first.Requests)
	m["runner.jobs"] = count(first.Submitted)
	m["runner.dedupe_hits"] = count(first.Hits)
	m["runner.disk_hits"] = count(first.DiskHits)
	m["runner.simulated"] = count(first.Misses)
	m["runner.sim_time_s"] = measure.Value{Value: first.SimTime.Seconds(), Unit: "s"}

	var queue, job []float64
	var jobs uint64
	for _, p := range passes {
		jobs += p.stats.Submitted
		for _, s := range p.jobs {
			queue = append(queue, float64(s.StartUS-s.QueuedUS)/1e3)
			job = append(job, float64(s.EndUS-s.StartUS)/1e3)
		}
	}
	m["runner.queue_wait_ms_p50"] = measure.Value{Value: measure.Median(queue), Unit: "ms"}
	m["runner.job_ms_p50"] = measure.Value{Value: measure.Median(job), Unit: "ms"}
	slot := time.Duration(suiteWorkers) * win.wall
	m["runner.ctrl_overhead_ms_per_job"] = measure.Value{Value: ms(slot-simulate) / float64(max(jobs, 1)), Unit: "ms"}

	var size, decode, encode []float64
	for _, en := range entries {
		t0 := time.Now()
		data, err := runner.EncodeEntry(runner.Request{}, en.out, en.elapsed)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, _, err := runner.DecodeEntry(data); err != nil {
			return err
		}
		t2 := time.Now()
		size = append(size, float64(en.bytes))
		encode = append(encode, float64(t1.Sub(t0))/1e3)
		decode = append(decode, float64(t2.Sub(t1))/1e3)
	}
	m["runner.entry_bytes_p50"] = measure.Value{Value: measure.Median(size), Unit: "bytes"}
	m["runner.encode_entry_us_p50"] = measure.Value{Value: measure.Median(encode), Unit: "us"}
	m["runner.decode_entry_us_p50"] = measure.Value{Value: measure.Median(decode), Unit: "us"}
	return nil
}

// coldPassPace is how long a cold quick-suite pass takes on the host the
// bounds were set on.
const coldPassPace = 10 * time.Second

// coldPasses is how many whole cold passes a window runs: as many as fit
// its length at coldPassPace, at least one. The count depends on the
// window's length alone, not on how fast the host happens to run, so
// every window at one length simulates the same mix of jobs.
func coldPasses(e *env) int {
	if e.smoke {
		return 1
	}
	return max(1, int(math.Round(float64(e.seconds)/float64(coldPassPace))))
}

// suiteCold runs cold quick-suite passes — seed s, s+1, ... — each on a
// fresh cache directory. An operation is one simulated job; its latency
// is the simulation time the runner recorded for it.
func suiteCold(e *env) (*result, error) {
	r := &result{layers: map[string]measure.Value{}, slots: suiteWorkers}
	probe := newProbe(true)
	for i := 0; i < setupSteps(e, 9); i++ {
		dir, err := e.scratch("warmup")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		p := runPass(e, passSpec{ids: warmupIDs, seed: e.seed + warmupSeedOffset, cacheDir: dir})
		r.setups = append(r.setups, time.Since(t0))
		if p.err != nil {
			probe.end()
			return nil, fmt.Errorf("set-up: %w", p.err)
		}
		os.RemoveAll(dir)
	}
	r.setupRefMS = probe.end()

	dirs := make([]string, coldPasses(e))
	for i := range dirs {
		dir, err := e.scratch("cold")
		if err != nil {
			return nil, err
		}
		dirs[i] = dir
	}
	var passes []pass
	m := startMeter(true)
	for i, dir := range dirs {
		passes = append(passes, runPass(e, passSpec{ids: e.ids(), seed: e.seed + int64(i), cacheDir: dir, telemetry: e.spans != nil}))
	}
	r.win = m.stop()

	var first []entry
	var simulate time.Duration
	for i, p := range passes {
		r.attempted += int64(p.stats.Submitted)
		r.failed += int64(p.stats.Errors + p.stats.Interrupted)
		e.checkTables(r, p)
		entries, err := readEntries(p.dir)
		if err != nil {
			return nil, err
		}
		for _, en := range entries {
			r.ops = append(r.ops, ms(en.elapsed))
		}
		if i == 0 {
			first = entries
		}
		simulate += p.stats.SimTime
	}
	r.digest = passes[0].digest
	var t modelTotals
	for _, en := range first {
		t.add(en.out.Result)
	}
	t.metrics(r.layers)
	if err := runnerLayers(r.layers, passes, first, r.win, simulate); err != nil {
		return nil, err
	}
	return r, nil
}

// suiteWarm fills a cache with one cold pass — its set-up, timed once
// because it is a whole cold pass — runs ten unmeasured warm passes, then
// measures warm passes, each on a fresh suite and runner answered wholly
// from the cache, until the window has run its length. An operation is
// one pass.
func suiteWarm(e *env) (*result, error) {
	r := &result{layers: map[string]measure.Value{}}
	dir, err := e.scratch("warm")
	if err != nil {
		return nil, err
	}
	probe := newProbe(true)
	t0 := time.Now()
	fill := runPass(e, passSpec{ids: e.ids(), seed: e.seed, cacheDir: dir})
	r.setups = append(r.setups, time.Since(t0))
	r.setupRefMS = probe.end()
	if fill.err != nil {
		return nil, fmt.Errorf("fill: %w", fill.err)
	}
	e.checkTables(r, fill)
	r.digest = fill.digest
	warmups, passesWanted := 10, 0
	if e.smoke {
		warmups, passesWanted = 0, 5
	}
	for i := 0; i < warmups; i++ {
		runPass(e, passSpec{ids: e.ids(), seed: e.seed, cacheDir: dir})
	}

	var passes []pass
	m := startMeter(false)
	for {
		passes = append(passes, runPass(e, passSpec{ids: e.ids(), seed: e.seed, cacheDir: dir, telemetry: e.spans != nil}))
		m.between()
		if passesWanted > 0 && len(passes) == passesWanted || passesWanted == 0 && e.done(m.start) {
			break
		}
	}
	r.win = m.stop()

	for _, p := range passes {
		r.attempted++
		r.ops = append(r.ops, ms(p.wall))
		switch {
		case p.err != nil:
			r.failed++
			r.problemf("warm pass: %v", p.err)
		case p.digest != fill.digest:
			r.problemf("warm pass tables sha256 %s, cold fill %s", short(p.digest), short(fill.digest))
		case p.stats.Misses != 0:
			r.problemf("warm pass simulated %d jobs, want 0", p.stats.Misses)
		}
	}
	entries, err := readEntries(dir)
	if err != nil {
		return nil, err
	}
	var t modelTotals
	for _, en := range entries {
		t.add(en.out.Result)
	}
	t.metrics(r.layers)
	if err := runnerLayers(r.layers, passes, entries, r.win, 0); err != nil {
		return nil, err
	}
	return r, nil
}

// setupSteps is how many times a workload repeats its set-up step; smoke
// runs set up once.
func setupSteps(e *env, n int) int {
	if e.smoke {
		return 1
	}
	return n
}
