package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"dynamo"
	"dynamo/internal/cache"
	"dynamo/internal/core"
	"dynamo/internal/hbm"
	"dynamo/internal/memory"
	"dynamo/internal/noc"
	"dynamo/internal/sim"
	"dynamo/perfbench/measure"
)

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(*env) (*result, error)
}

var workloads = []workload{
	{"suite-cold", suiteCold},
	{"suite-warm", suiteWarm},
	{"fleet", fleetWorkload},
	{"resume", resumeWorkload},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadList() string { return strings.Join(workloadNames(), ", ") }

// endToEnd derives the end-to-end metrics of a run's window. The
// CPU-bound part of every host time is scaled to nominal host speed (see
// speed.go): all of it for simulations and cache reads, only the worker's
// execution for a fleet job, whose waits for polls and leases do not
// depend on CPU speed. The raw values go to the log.
func endToEnd(e *env, r *result) (map[string]measure.Value, error) {
	n := float64(len(r.ops))
	if n == 0 || r.win.wall <= 0 {
		return nil, errors.New("the window completed no operation")
	}
	speeds := r.win.opSpeeds(len(r.ops))
	norm := make([]float64, len(r.ops))
	var busy, saved, meanSpeed float64
	for i, l := range r.ops {
		c := l
		if r.opsCPU != nil {
			c = r.opsCPU[i]
		}
		busy += c
		saved += (1 - speeds[i]) * c
		norm[i] = l - (1-speeds[i])*c
		meanSpeed += speeds[i] / n
	}
	// The window's CPU-bound time is at least the process's CPU time: work
	// around the operations — a fleet job's HTTP round trips and commits,
	// the collector — runs on the host's CPUs too, so the operations'
	// CPU-bound parts are scaled up to it. Its share of the window is that
	// time spread over the slots, at most the whole window.
	if k := ms(r.win.cpu) / math.Max(busy, 1e-9); k > 1 {
		busy, saved = busy*k, saved*k
	}
	wall := ms(r.win.wall)
	slots := float64(max(r.slots, 1))
	share := math.Min(1, wall*slots/math.Max(busy, 1e-9))
	normWall := wall - share*saved/slots

	tail, err := tailOf(e, norm)
	if err != nil {
		return nil, err
	}
	rawTail, _ := tailOf(e, r.ops)
	setups := make([]float64, len(r.setups))
	ssp := speed(r.setupRefMS)
	for i, d := range r.setups {
		c := d
		if r.setupCPU != nil {
			c = r.setupCPU[i]
		}
		setups[i] = (d - time.Duration((1-ssp)*float64(c))).Seconds()
	}
	cpu := ms(r.win.cpu) / n
	fmt.Fprintf(e.log, "raw: ops_per_s %g op_p50_ms %g op_p90_ms %g cpu_ms_per_op %g host speed %g (%d ops in %s)\n",
		1000*n/wall, measure.Median(r.ops), rawTail, cpu, meanSpeed, len(r.ops), r.win.wall.Round(time.Millisecond))
	return map[string]measure.Value{
		"setup_s":         {Value: measure.Median(setups), Unit: "s"},
		"ops_per_s":       {Value: 1000 * n / normWall, Unit: "1/s"},
		"op_p50_ms":       {Value: measure.Median(norm), Unit: "ms"},
		"op_p90_ms":       {Value: tail, Unit: "ms"},
		"cpu_ms_per_op":   {Value: cpu * meanSpeed, Unit: "ms"},
		"alloc_kb_per_op": {Value: float64(r.win.allocBytes) / 1024 / n, Unit: "KiB"},
	}, nil
}

// tailOf is the p90 of xs; a smoke run, too short for one, reports its
// slowest sample instead.
func tailOf(e *env, xs []float64) (float64, error) {
	tail, err := measure.Tail(xs, 0.9)
	if errors.Is(err, measure.ErrTooFewSamples) && e.smoke {
		return slices.Max(xs), nil
	}
	if err != nil {
		return 0, fmt.Errorf("%w: lengthen --seconds", err)
	}
	return tail, nil
}

// perLayer assembles the per-layer metrics of a traced run: the layers
// the workload measures in its own window, the kernel and component
// probes every traced run repeats, the process's own counters, the
// tracing overhead against the untraced run base, and — for layers this
// workload never exercises — a smoke-length run of the workload that does.
func perLayer(e *env, w *workload, r, base *result, want []measure.Metric) (map[string]measure.Value, error) {
	m := map[string]measure.Value{}
	for k, v := range r.layers {
		m[k] = v
	}
	// The tail latency is too noisy on a shared host to gate; traced
	// runs report it.
	e2e, err := endToEnd(e, r)
	if err != nil {
		return nil, err
	}
	m["op_p90_ms"] = e2e["op_p90_ms"]
	untraced, err := endToEnd(e, base)
	if err != nil {
		return nil, fmt.Errorf("untraced: %w", err)
	}
	m["trace.overhead"] = measure.Value{Value: untraced["ops_per_s"].Value / e2e["ops_per_s"].Value, Unit: "ratio"}
	r.attempted += base.attempted
	r.failed += base.failed
	for _, p := range base.problems {
		r.problemf("untraced: %s", p)
	}
	micro(e, m)
	if err := hostPerf(e, m); err != nil {
		return nil, err
	}
	m["process.peak_rss_mb"] = measure.Value{Value: peakRSSMB(), Unit: "MB"}
	m["process.gc_cycles"] = count(uint64(r.win.gcCycles))
	m["process.gc_pause_ms"] = measure.Value{Value: ms(r.win.gcPause), Unit: "ms"}
	m["host.ref_ms"] = measure.Value{Value: r.win.refMS, Unit: "ms"}

	for _, v := range workloads {
		if v.name == w.name || !missing(m, want) {
			continue
		}
		dir, err := e.scratch("probe-" + v.name)
		if err != nil {
			return nil, err
		}
		pe := *e
		pe.smoke, pe.dir = true, dir
		pr, err := v.run(&pe)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", v.name, err)
		}
		r.attempted += pr.attempted
		r.failed += pr.failed
		for _, p := range pr.problems {
			r.problemf("%s probe: %s", v.name, p)
		}
		for k, val := range pr.layers {
			if _, ok := m[k]; !ok {
				m[k] = val
			}
		}
	}
	return m, nil
}

func missing(m map[string]measure.Value, want []measure.Metric) bool {
	for _, w := range want {
		if _, ok := m[w.Name]; !ok {
			return true
		}
	}
	return false
}

// micro runs the component microbenchmarks the repository's own
// Benchmark functions define, through testing.Benchmark.
func micro(e *env, m map[string]measure.Value) {
	testing.Init()
	benchtime := "100ms"
	if e.smoke {
		benchtime = "5ms"
	}
	flag.Set("test.benchtime", benchtime)
	for _, b := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"sim.schedule_run", func(b *testing.B) {
			eng := sim.NewEngine()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.Schedule(sim.Tick(i%64), func() {})
				if i%64 == 63 {
					eng.Run(0)
				}
			}
			eng.Run(0)
		}},
		{"noc.send", func(b *testing.B) {
			mesh, err := noc.New(noc.Config{Width: 8, Height: 8, RouteLatency: 1, LinkLatency: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mesh.Send(i%64, (i*7)%64, noc.DataFlits, sim.Tick(i))
			}
		}},
		{"hbm.read", func(b *testing.B) {
			mem, err := hbm.New(hbm.Config{Channels: 8, Latency: 100, LineOccupancy: 2})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mem.Read(memory.Line(i), sim.Tick(i))
			}
		}},
		{"cache.lookup_hit", func(b *testing.B) {
			c := cache.NewSetAssoc[uint64](256, 4)
			for i := uint64(0); i < 1024; i++ {
				c.Insert(i, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Lookup(uint64(i) & 1023)
			}
		}},
		{"cache.insert_evict", func(b *testing.B) {
			c := cache.NewSetAssoc[uint64](256, 4)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Insert(uint64(i), uint64(i))
			}
		}},
		{"memory.store_amo", func(b *testing.B) {
			s := memory.NewStore()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.AMO(memory.AMOAdd, memory.Addr(i%1024)*8, 1, 0)
			}
		}},
		{"core.reuse_decide", func(b *testing.B) {
			r := core.NewReuse(1, core.DefaultAMTConfig(), core.FallbackPresentNear)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Decide(0, memory.Line(i%256), memory.SharedClean)
			}
		}},
	} {
		t0 := time.Now()
		res := testing.Benchmark(b.fn)
		e.spans.add("probes", "micro", b.name, t0, time.Now())
		n := float64(max(res.N, 1))
		m[b.name+"_ns_per_op"] = measure.Value{Value: float64(res.T.Nanoseconds()) / n, Unit: "ns"}
		m[b.name+"_allocs_per_op"] = measure.Value{Value: float64(res.MemAllocs) / n, Unit: "count"}
	}
}

// kindPrefix names the metric prefix of each host-perf event kind. The
// tick kind is left out: without chaos or interval sampling the quick
// settings schedule no tick events.
var kindPrefix = map[string]string{
	"cpu": "cpu",
	"rn":  "chi.rn",
	"hn":  "chi.hn",
	"noc": "noc",
}

// hostPerf runs every workload under all-near and dynamo-reuse-pn at the
// quick suite's settings with the host-performance self-profiler on, one
// at a time, and attributes kernel events and time to the subsystem that
// scheduled them.
func hostPerf(e *env, m map[string]measure.Value) error {
	names := dynamo.Workloads()
	if e.smoke {
		names = names[:2]
	}
	type agg struct {
		events uint64
		estNS  float64
	}
	kinds := map[string]*agg{}
	for k := range kindPrefix {
		kinds[k] = &agg{}
	}
	var events, wallNS, allocs, bytes uint64
	var estTotal float64
	for _, w := range names {
		for _, p := range []string{"all-near", "dynamo-reuse-pn"} {
			s, err := dynamo.New(dynamo.DefaultConfig(),
				dynamo.WithPolicy(p), dynamo.WithThreads(suiteThreads), dynamo.WithScale(suiteScale),
				dynamo.WithSeed(e.seed), dynamo.WithHostPerf())
			if err != nil {
				return err
			}
			t0 := time.Now()
			res, err := s.Run(w)
			e.spans.add("probes", "hostperf", w+"/"+p, t0, time.Now())
			if err != nil {
				return fmt.Errorf("host perf %s/%s: %w", w, p, err)
			}
			hp := res.HostPerf
			events += hp.Events
			wallNS += hp.WallNS
			allocs += hp.HeapAllocObjects
			bytes += hp.HeapAllocBytes
			for _, k := range hp.Kinds {
				estTotal += k.EstNS
				if a, ok := kinds[k.Kind]; ok {
					a.events += k.Events
					a.estNS += k.EstNS
				}
			}
		}
	}
	ev := float64(max(events, 1))
	m["sim.events"] = count(events)
	m["sim.ns_per_event"] = measure.Value{Value: float64(wallNS) / ev, Unit: "ns"}
	m["sim.allocs_per_event"] = measure.Value{Value: float64(allocs) / ev, Unit: "count"}
	m["sim.bytes_per_event"] = measure.Value{Value: float64(bytes) / ev, Unit: "bytes"}
	for k, a := range kinds {
		p := kindPrefix[k]
		m[p+".events"] = count(a.events)
		m[p+".ns_per_event"] = measure.Value{Value: a.estNS / float64(max(a.events, 1)), Unit: "ns"}
		m[p+".share"] = measure.Value{Value: a.estNS / math.Max(estTotal, 1), Unit: "ratio"}
	}
	return nil
}
