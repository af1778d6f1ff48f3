package main

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"dynamo"
	"dynamo/internal/runner"
	"dynamo/perfbench/measure"
)

// fleetCkptEvery is the service's checkpoint cadence, in events.
const fleetCkptEvery = 20000

// fleet is an in-process sweep service in worker mode plus two fleet
// workers with one slot each, at the dynamo-worker defaults otherwise.
type fleet struct {
	svc     *dynamo.SweepService
	workers []*dynamo.FleetWorker
	probe   *fleetProbe
}

// fleetProbe times the workers' executions, by job digest, and — when
// tracing — their HTTP round trips.
type fleetProbe struct {
	e  *env
	mu sync.Mutex
	// rtt holds round-trip times in ms by route; grants counts leases
	// that handed out a job.
	rtt    map[string][]float64
	grants int
	// execute holds each execution's time in ms, byDigest their sum per
	// job.
	execute  []float64
	byDigest map[string]float64
	simulate time.Duration
}

func startFleet(e *env, dir string) (*fleet, error) {
	svc, err := dynamo.Serve("127.0.0.1:0",
		dynamo.ServiceCacheDir(dir),
		dynamo.ServiceJobs(suiteWorkers),
		dynamo.ServiceWorkers(0),
		dynamo.ServiceCheckpoints(fleetCkptEvery))
	if err != nil {
		return nil, err
	}
	f := &fleet{svc: svc, probe: &fleetProbe{e: e}}
	f.probe.reset()
	for i := 1; i <= suiteWorkers; i++ {
		opts := dynamo.FleetWorkerOptions{Addr: svc.Addr(), ID: fmt.Sprintf("w%d", i), Slots: 1}
		opts.Execute = f.probe.executor(opts.ID)
		if e.spans != nil {
			opts.Transport = &timedTransport{probe: f.probe, worker: opts.ID}
		}
		w := dynamo.NewFleetWorker(opts)
		w.Start()
		f.workers = append(f.workers, w)
	}
	return f, nil
}

// stop drains the workers and closes the service, returning the summed
// worker counters.
func (f *fleet) stop() dynamo.FleetWorkerStats {
	for _, w := range f.workers {
		w.Drain()
	}
	st := sumStats(f)
	f.svc.Close()
	return st
}

// timedTransport times each worker HTTP round trip by route.
type timedTransport struct {
	probe  *fleetProbe
	worker string
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	t1 := time.Now()
	route, digest := routeOf(req.URL.Path)
	p := t.probe
	p.mu.Lock()
	p.rtt[route] = append(p.rtt[route], ms(t1.Sub(t0)))
	if route == "lease" && err == nil && resp.StatusCode == http.StatusOK {
		p.grants++
	}
	p.mu.Unlock()
	p.e.spans.add(t.worker+" http", "http", route, t0, t1, "digest", digest)
	return resp, err
}

// routeOf names a worker route: lease, heartbeat or commit, plus the job
// digest it carries.
func routeOf(path string) (route, digest string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) == 3 && parts[2] == "lease":
		return "lease", ""
	case len(parts) == 4 && parts[3] == "heartbeat":
		return "heartbeat", parts[2]
	case len(parts) == 4 && parts[3] == "result":
		return "commit", parts[2]
	}
	return "other", ""
}

func (p *fleetProbe) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rtt, p.grants, p.execute, p.byDigest, p.simulate = map[string][]float64{}, 0, nil, map[string]float64{}, 0
}

// executor wraps local execution with a timed span keyed by job digest.
func (p *fleetProbe) executor(worker string) func(runner.Request, runner.ExecOptions) (*runner.Outcome, error) {
	return func(q runner.Request, x runner.ExecOptions) (*runner.Outcome, error) {
		t0 := time.Now()
		out, err := runner.ExecuteLocal(q, x)
		t1 := time.Now()
		digest := q.Digest()
		p.mu.Lock()
		p.execute = append(p.execute, ms(t1.Sub(t0)))
		p.byDigest[digest] += ms(t1.Sub(t0))
		p.simulate += t1.Sub(t0)
		p.mu.Unlock()
		p.e.spans.add(worker+" execute", "execute", q.String(), t0, t1, "digest", digest)
		return out, err
	}
}

// fleetWorkload runs one quick-suite pass at seed s through the fleet
// exactly as `dynamo-experiments -remote` does, with a fresh local cache
// directory. The pass is the window: on the reference host it takes about
// 31 s, longer than any window the benchmark asks for. An operation is
// one job; its latency is the time from the local runner starting the job
// to holding its result, of which only the worker's execution is
// CPU-bound.
func fleetWorkload(e *env) (*result, error) {
	r := &result{layers: map[string]measure.Value{}, slots: suiteWorkers}
	f, err := fleetSetup(e, r)
	if err != nil {
		return nil, err
	}
	dir, err := e.scratch("client")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.probe.reset() // set-up traffic is not the window's
	before := sumStats(f)

	m := startMeter(true)
	p := runPass(e, passSpec{ids: e.ids(), seed: e.seed, cacheDir: dir, remote: f.svc.Addr(), telemetry: true})
	r.win = m.stop()
	ws := f.stop()

	r.attempted = int64(p.stats.Submitted)
	r.failed = int64(p.stats.Errors + p.stats.Interrupted)
	e.checkTables(r, p)
	for _, s := range p.jobs {
		if s.Outcome == "ok" {
			r.ops = append(r.ops, float64(s.EndUS-s.StartUS)/1e3)
			r.opsCPU = append(r.opsCPU, f.probe.byDigest[s.Digest])
		}
	}
	r.digest = p.digest
	entries, err := readEntries(dir)
	if err != nil {
		return nil, err
	}
	var t modelTotals
	for _, en := range entries {
		t.add(en.out.Result)
	}
	t.metrics(r.layers)
	if err := runnerLayers(r.layers, []pass{p}, entries, r.win, p.stats.SimTime); err != nil {
		return nil, err
	}
	if e.spans != nil {
		serviceLayers(r.layers, f.probe, subStats(ws, before), r.win)
	}
	return r, nil
}

// fleetSetup starts the fleet and pushes a small pass through it, as many
// times as the workload has set-up steps, and returns the last fleet
// still running. The CPU-bound part of a step is the workers' execution,
// spread over their slots.
func fleetSetup(e *env, r *result) (*fleet, error) {
	probe := newProbe(true)
	defer func() { r.setupRefMS = probe.end() }()
	var f *fleet
	for i := 0; i < setupSteps(e, 5); i++ {
		if f != nil {
			f.stop()
		}
		dir, err := e.scratch("server")
		if err != nil {
			return nil, err
		}
		local, err := e.scratch("warmup")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if f, err = startFleet(e, dir); err != nil {
			return nil, err
		}
		p := runPass(e, passSpec{ids: warmupIDs, seed: e.seed + warmupSeedOffset, cacheDir: local, remote: f.svc.Addr()})
		r.setups = append(r.setups, time.Since(t0))
		f.probe.mu.Lock()
		r.setupCPU = append(r.setupCPU, f.probe.simulate/suiteWorkers)
		f.probe.mu.Unlock()
		if p.err != nil {
			f.stop()
			return nil, fmt.Errorf("set-up: %w", p.err)
		}
		os.RemoveAll(local)
	}
	return f, nil
}

func sumStats(f *fleet) dynamo.FleetWorkerStats {
	var sum dynamo.FleetWorkerStats
	for _, w := range f.workers {
		st := w.Stats()
		sum.Leases += st.Leases
		sum.Committed += st.Committed
		sum.Duplicates += st.Duplicates
		sum.Fenced += st.Fenced
		sum.Failed += st.Failed
		sum.Abandoned += st.Abandoned
		sum.Executed += st.Executed
	}
	return sum
}

func subStats(a, b dynamo.FleetWorkerStats) dynamo.FleetWorkerStats {
	return dynamo.FleetWorkerStats{
		Leases:     a.Leases - b.Leases,
		Committed:  a.Committed - b.Committed,
		Duplicates: a.Duplicates - b.Duplicates,
		Fenced:     a.Fenced - b.Fenced,
		Failed:     a.Failed - b.Failed,
		Abandoned:  a.Abandoned - b.Abandoned,
		Executed:   a.Executed - b.Executed,
	}
}

// serviceLayers derives the lease, commit and worker metrics of the
// window from the probe and the workers' counters.
func serviceLayers(m map[string]measure.Value, p *fleetProbe, ws dynamo.FleetWorkerStats, win window) {
	p.mu.Lock()
	defer p.mu.Unlock()
	leases := len(p.rtt["lease"])
	m["service.lease_calls"] = count(uint64(leases))
	m["service.lease_grant_ratio"] = measure.Value{Value: float64(p.grants) / float64(max(leases, 1)), Unit: "ratio"}
	m["service.lease_rtt_ms_p50"] = measure.Value{Value: measure.Median(p.rtt["lease"]), Unit: "ms"}
	m["service.commit_rtt_ms_p50"] = measure.Value{Value: measure.Median(p.rtt["commit"]), Unit: "ms"}
	m["service.heartbeats"] = count(uint64(len(p.rtt["heartbeat"])))
	m["service.worker.execute_ms_p50"] = measure.Value{Value: measure.Median(p.execute), Unit: "ms"}
	slot := time.Duration(suiteWorkers) * win.wall
	m["service.worker.idle_ms_per_job"] = measure.Value{Value: ms(slot-p.simulate) / float64(max(len(p.execute), 1)), Unit: "ms"}
	m["service.worker.leases"] = count(ws.Leases)
	m["service.worker.committed"] = count(ws.Committed)
	m["service.worker.duplicates"] = count(ws.Duplicates)
	m["service.worker.fenced"] = count(ws.Fenced)
	m["service.worker.failed"] = count(ws.Failed)
	m["service.worker.abandoned"] = count(ws.Abandoned)
}
