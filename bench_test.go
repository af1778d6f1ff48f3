package dynamo

// One benchmark per table and figure of the paper's evaluation, each
// exercising the exact code path the corresponding experiment runner uses,
// at reduced scale so `go test -bench=.` completes quickly. The full-size
// reproductions are generated by cmd/dynamo-experiments; EXPERIMENTS.md
// records their output.

import (
	"fmt"
	"testing"

	"dynamo/internal/core"
	"dynamo/internal/experiments"
	"dynamo/internal/workload"
)

// benchConfig is the reduced system for benchmark iterations.
func benchConfig(policy string) Config {
	cfg := smallConfig()
	cfg.Policy = policy
	return cfg
}

// benchSession builds a Session or fails the benchmark.
func benchSession(b *testing.B, cfg Config, opts ...Option) *Session {
	b.Helper()
	s, err := New(cfg, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// runBench executes one workload/policy pair per iteration. Derived
// metrics accumulate across iterations and are reported once after the
// loop: calling ReportMetric inside the loop would silently keep only the
// last iteration's value.
func runBench(b *testing.B, wl, policy string, threads int, scale float64) {
	b.Helper()
	s := benchSession(b, benchConfig(policy),
		WithPolicy(policy), WithThreads(threads), WithScale(scale))
	b.ReportAllocs()
	var totalCycles float64
	for i := 0; i < b.N; i++ {
		res, err := s.Run(wl)
		if err != nil {
			b.Fatal(err)
		}
		totalCycles += float64(res.Cycles)
	}
	b.ReportMetric(totalCycles/float64(b.N), "sim-cycles")
}

// BenchmarkFigure1 covers the shared-counter throughput microbenchmark:
// one sub-benchmark per curve at the extreme thread counts.
func BenchmarkFigure1(b *testing.B) {
	cases := []struct {
		name     string
		policy   string
		threads  int
		noReturn bool
	}{
		{"near-1t", "all-near", 1, true},
		{"near-4t", "all-near", 4, true},
		{"far-load-4t", "unique-near", 4, false},
		{"far-store-4t", "unique-near", 4, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s := benchSession(b, benchConfig(c.policy),
				WithPolicy(c.policy), WithThreads(c.threads))
			b.ReportAllocs()
			var amos, cycles float64
			for i := 0; i < b.N; i++ {
				res, err := s.RunCounter(100, c.noReturn)
				if err != nil {
					b.Fatal(err)
				}
				amos += float64(res.AMOs)
				cycles += float64(res.Cycles)
			}
			b.ReportMetric(amos/cycles*1000, "updates/kcycle")
		})
	}
}

// BenchmarkFigure6 measures the APKI characterization run for one workload
// of each intensity class.
func BenchmarkFigure6(b *testing.B) {
	for _, wl := range []string{"barnes", "bfs", "histogram"} {
		b.Run(wl, func(b *testing.B) { runBench(b, wl, "all-near", 4, 0.12) })
	}
}

// BenchmarkFigure7 measures the static-policy comparison on representative
// workloads: a mutex-bound one, a contended one and a streaming one.
func BenchmarkFigure7(b *testing.B) {
	for _, wl := range []string{"barnes", "radiosity", "spmv"} {
		for _, policy := range []string{"all-near", "unique-near", "present-near"} {
			b.Run(fmt.Sprintf("%s/%s", wl, policy), func(b *testing.B) {
				runBench(b, wl, policy, 4, 0.12)
			})
		}
	}
}

// BenchmarkFigure8 measures the DynAMO predictors against the baseline.
func BenchmarkFigure8(b *testing.B) {
	for _, wl := range []string{"radiosity", "histogram"} {
		for _, policy := range []string{"all-near", "dynamo-metric", "dynamo-reuse-un", "dynamo-reuse-pn"} {
			b.Run(fmt.Sprintf("%s/%s", wl, policy), func(b *testing.B) {
				runBench(b, wl, policy, 4, 0.12)
			})
		}
	}
}

// BenchmarkFigure9 measures the input-sensitivity pairs.
func BenchmarkFigure9(b *testing.B) {
	for _, c := range []struct{ wl, input string }{
		{"spmv", "JP"}, {"spmv", "rma10"},
		{"histogram", "NASA"}, {"histogram", "BMP24"},
	} {
		b.Run(c.wl+"/"+c.input, func(b *testing.B) {
			s := benchSession(b, benchConfig("dynamo-reuse-pn"),
				WithPolicy("dynamo-reuse-pn"), WithThreads(4),
				WithScale(0.12), WithInput(c.input))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(c.wl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnergy measures a run with the energy model active (it always
// is) on the policies Section VI-E compares.
func BenchmarkEnergy(b *testing.B) {
	for _, policy := range []string{"all-near", "unique-near", "dynamo-reuse-pn"} {
		b.Run(policy, func(b *testing.B) {
			s := benchSession(b, benchConfig(policy),
				WithPolicy(policy), WithThreads(4), WithScale(0.12))
			b.ReportAllocs()
			var uj float64
			for i := 0; i < b.N; i++ {
				res, err := s.Run("histogram")
				if err != nil {
					b.Fatal(err)
				}
				uj += res.Energy.Total() / 1e6
			}
			b.ReportMetric(uj/float64(b.N), "uJ")
		})
	}
}

// BenchmarkFigure10 measures DynAMO-Reuse-PN under the AMT sizing sweep's
// extreme configurations.
func BenchmarkFigure10(b *testing.B) {
	for _, amt := range []core.AMTConfig{
		{Entries: 32, Ways: 4, CounterMax: 32},
		{Entries: 128, Ways: 4, CounterMax: 32},
		{Entries: 512, Ways: 4, CounterMax: 32},
	} {
		b.Run(fmt.Sprintf("entries-%d", amt.Entries), func(b *testing.B) {
			cfg := benchConfig("dynamo-reuse-pn")
			cfg.AMT = amt
			s := benchSession(b, cfg,
				WithPolicy("dynamo-reuse-pn"), WithThreads(4), WithScale(0.12))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run("histogram"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure11 measures the system design-space variants.
func BenchmarkFigure11(b *testing.B) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"base", func(*Config) {}},
		{"noc-1c", func(c *Config) { c.Chi.Mesh.RouteLatency = 0 }},
		{"noc-3c", func(c *Config) { c.Chi.Mesh.RouteLatency = 2 }},
		{"half-lat", func(c *Config) { c.Chi.Mem.Latency /= 2 }},
		{"double-lat", func(c *Config) { c.Chi.Mem.Latency *= 2 }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := benchConfig("dynamo-reuse-pn")
			v.mutate(&cfg)
			s := benchSession(b, cfg,
				WithPolicy("dynamo-reuse-pn"), WithThreads(4), WithScale(0.2))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run("radiosity"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableIII measures the table3 experiment: the registry's
// footprints at the suite's size, computed without building a workload.
func BenchmarkTableIII(b *testing.B) {
	s := experiments.NewSuite(experiments.Options{Threads: 4, Scale: 0.1})
	x, err := experiments.Find("table3")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := x.Run(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadBuild measures building every workload instance
// (input generation, programs and validation references; no simulation).
func BenchmarkWorkloadBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, spec := range workload.All() {
			if _, err := spec.Build(workload.Params{Threads: 4, Seed: 1, Scale: 0.1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkProbeBus measures probe-bus and sanitizer overhead on the same
// run four ways: no bus at all (the hot default path), the protocol
// sanitizer alone (WithCheck, no bus), a bus collecting histograms and
// counters, and a bus with the contention profiler plus interval telemetry
// attached. The disabled-vs-absent gap is the cost of the nil-receiver
// checks sprinkled through the machine; EXPERIMENTS.md records the
// measured ratios.
func BenchmarkProbeBus(b *testing.B) {
	cases := []struct {
		name string
		// opts builds the case's options; collectors are per-run state, so
		// each iteration gets a fresh Session around fresh collectors.
		opts func() []Option
	}{
		{"disabled", func() []Option { return nil }},
		{"checked", func() []Option { return []Option{WithCheck()} }},
		{"enabled", func() []Option { return []Option{WithObs(NewObs())} }},
		{"profiled", func() []Option {
			return []Option{WithObs(NewObs()), WithProfile(NewProfiler(32)),
				WithInterval(NewIntervalRecorder(10000, 0))}
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := benchConfig("dynamo-reuse-pn")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := append([]Option{
					WithPolicy("dynamo-reuse-pn"), WithThreads(4), WithScale(0.12),
				}, c.opts()...)
				if _, err := benchSession(b, cfg, opts...).Run("histogram"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSelfProfiler measures the host-perf self-profiler's overhead
// the same way BenchmarkProbeBus measures the probe bus: the identical
// run with profiling absent and enabled. The gap is the profiler's cost —
// two array increments per event plus two clock reads per sample stride.
func BenchmarkSelfProfiler(b *testing.B) {
	run := func(b *testing.B, perfOn bool) {
		b.Helper()
		opts := []Option{
			WithPolicy("dynamo-reuse-pn"), WithThreads(4), WithScale(0.12),
		}
		if perfOn {
			opts = append(opts, WithHostPerf())
		}
		s := benchSession(b, benchConfig("dynamo-reuse-pn"), opts...)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Run("histogram"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}

// BenchmarkExperimentSuite measures the harness machinery itself (Table I,
// II, III and IV and the hardware-cost table are computed, not simulated).
func BenchmarkExperimentSuite(b *testing.B) {
	s := experiments.NewSuite(experiments.Options{Threads: 4, Scale: 0.1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, id := range []string{"table1", "table2", "table3", "table4", "hwcost"} {
			e, err := experiments.Find(id)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Run(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
