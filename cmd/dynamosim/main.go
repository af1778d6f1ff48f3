// Command dynamosim runs one workload under one AMO placement policy and
// prints the run's metrics.
//
// Usage:
//
//	dynamosim -workload histogram -policy dynamo-reuse-pn [-threads 32]
//	dynamosim -workload histogram -policy dynamo-reuse-pn -hist -timeline t.json
//	dynamosim -workload histogram -hotlines 16
//	dynamosim -workload histogram -interval 50000 -interval-csv intervals.csv
//	dynamosim -workload histogram -check
//	dynamosim -workload histogram -check -chaos-seed 7 -chaos-level 2
//	dynamosim -workload histogram -ckpt run.ckpt -ckpt-every 5000000
//	dynamosim -workload histogram -resume run.ckpt
//	dynamosim -workload histogram -json
//	dynamosim -list
//
// SIGINT/SIGTERM interrupt the run gracefully: with -ckpt set, a final
// checkpoint is written before exiting, and a later invocation with
// -resume continues the run to a byte-identical result.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"dynamo"
	"dynamo/internal/checkpoint"
	"dynamo/internal/cliflags"
	"dynamo/internal/faultio"
)

// writeCheckpoint durably replaces path with ck through the cache's
// atomic writer (temp file, fsync, rename, directory fsync), so an
// interrupt or crash mid-write never leaves a truncated checkpoint.
func writeCheckpoint(path string, ck *dynamo.Checkpoint) error {
	var buf bytes.Buffer
	if err := checkpoint.Write(&buf, ck); err != nil {
		return err
	}
	return faultio.OS{}.WriteFileAtomic(filepath.Dir(path), path, buf.Bytes())
}

// exitRunError reports a failed or interrupted run and exits non-zero.
// An interrupted run with checkpointing enabled prints the resume hint.
func exitRunError(log *cliflags.Logger, err error, ckptFile string) {
	if errors.Is(err, dynamo.ErrInterrupted) {
		log.Errorf("dynamosim: interrupted")
		if ckptFile != "" {
			log.Errorf("dynamosim: resume with -resume %s", ckptFile)
		}
		os.Exit(130)
	}
	log.Fatal(err)
}

func main() {
	wl := cliflags.Workload(flag.CommandLine)
	policy := cliflags.Policy(flag.CommandLine)
	threads := cliflags.Threads(flag.CommandLine, 32)
	seed := cliflags.Seed(flag.CommandLine)
	scale := cliflags.Scale(flag.CommandLine, 1.0)
	input := cliflags.Input(flag.CommandLine)
	detail := flag.Bool("detail", false, "print every raw counter")
	prefetch := flag.Int("prefetch", 0, "L1D stride prefetch degree (0 = off)")
	hist := flag.Bool("hist", false, "print per-class latency histograms and counters")
	hotlines := flag.Int("hotlines", 0, "profile the N hottest AMO cache lines (0 = off)")
	profileJSON := flag.String("profile-json", "", "write the contention profile as JSON to this file (implies -hotlines)")
	interval := flag.Int64("interval", 0, "sample interval telemetry every N cycles (0 = off)")
	intervalJSON := flag.String("interval-json", "", "write the interval series as JSON to this file")
	intervalCSV := flag.String("interval-csv", "", "write the interval series as CSV to this file")
	timeline := flag.String("timeline", "", "write a Chrome trace-event timeline to this file")
	checkOn := cliflags.Check(flag.CommandLine)
	chaosSeed := cliflags.ChaosSeed(flag.CommandLine)
	chaosLevel := cliflags.ChaosLevel(flag.CommandLine)
	ckptFile := flag.String("ckpt", "", "write checkpoints to this file (periodic with -ckpt-every, final on SIGINT/SIGTERM)")
	ckptEvery := cliflags.CkptEvery(flag.CommandLine)
	resumeFile := flag.String("resume", "", "restore the run from this checkpoint file")
	perfOn := flag.Bool("perf", false, "self-profile host performance (events/sec, subsystem attribution)")
	cpuprofile := cliflags.CPUProfile(flag.CommandLine)
	memprofile := cliflags.MemProfile(flag.CommandLine)
	jsonOut := cliflags.JSON(flag.CommandLine)
	verbose, quiet := cliflags.Verbosity(flag.CommandLine)
	list := flag.Bool("list", false, "list workloads and policies")
	flag.Parse()

	log := cliflags.NewLogger(*verbose, *quiet)

	stopProfiles, err := cliflags.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	if *list {
		fmt.Println("workloads:")
		for _, name := range dynamo.Workloads() {
			info, err := dynamo.DescribeWorkload(name)
			if err != nil {
				log.Fatal(err)
			}
			inputs := ""
			if len(info.Inputs) > 0 {
				inputs = " inputs: " + strings.Join(info.Inputs, ",")
			}
			fmt.Printf("  %-14s %-5s %-9s class=%s  %s%s\n", info.Name, info.Code, info.Suite, info.Class, info.Sync, inputs)
		}
		fmt.Println("policies:")
		for _, p := range dynamo.Policies() {
			fmt.Printf("  %s\n", p)
		}
		fmt.Printf("probe classes:\n  %s\n", strings.Join(dynamo.ProbeClasses(), " "))
		fmt.Printf("probe phases:\n  %s\n", strings.Join(dynamo.ProbePhases(), " "))
		fmt.Printf("probe counters:\n  %s\n", strings.Join(dynamo.ProbeCounters(), " "))
		fmt.Printf("probe spans:\n  %s\n", strings.Join(dynamo.ProbeSpans(), " "))
		return
	}
	if *wl == "" {
		log.Errorf("dynamosim: -workload is required (try -list)")
		os.Exit(2)
	}

	// Early, typed validation through the same wire request a sweep or the
	// sweep service would carry: an unknown workload, policy or input
	// fails here naming the bad field, before any machinery is built.
	wireReq := dynamo.SweepRequest{
		Workload:   *wl,
		Policy:     *policy,
		Input:      *input,
		Threads:    *threads,
		Seed:       *seed,
		Scale:      *scale,
		Check:      *checkOn,
		ChaosSeed:  *chaosSeed,
		ChaosLevel: *chaosLevel,
	}
	if err := wireReq.Validate(); err != nil {
		log.Fatalf("dynamosim: %v", err)
	}

	cfg := dynamo.DefaultConfig()
	cfg.Chi.PrefetchDegree = *prefetch
	if *profileJSON != "" && *hotlines == 0 {
		*hotlines = 32
	}
	opts := []dynamo.Option{
		dynamo.WithPolicy(*policy),
		dynamo.WithThreads(*threads),
		dynamo.WithSeed(*seed),
		dynamo.WithScale(*scale),
		dynamo.WithInput(*input),
	}
	if *checkOn {
		opts = append(opts, dynamo.WithCheck())
	}
	if *perfOn {
		opts = append(opts, dynamo.WithHostPerf())
	}
	if *chaosSeed != 0 || *chaosLevel != 0 {
		opts = append(opts, dynamo.WithChaos(*chaosSeed, *chaosLevel))
	}
	var bus *dynamo.ObsBus
	if *hist || *timeline != "" || *jsonOut || *hotlines > 0 || *interval > 0 {
		if *timeline != "" {
			bus = dynamo.NewObs(dynamo.WithTimeline())
		} else {
			bus = dynamo.NewObs()
		}
		opts = append(opts, dynamo.WithObs(bus))
	}
	var prof *dynamo.Profiler
	if *hotlines > 0 {
		prof = dynamo.NewProfiler(*hotlines)
		opts = append(opts, dynamo.WithProfile(prof))
	}
	var rec *dynamo.IntervalRecorder
	if *interval > 0 {
		rec = dynamo.NewIntervalRecorder(*interval, 0)
		opts = append(opts, dynamo.WithInterval(rec))
	}
	if *ckptFile != "" {
		opts = append(opts, dynamo.WithCheckpoint(*ckptEvery, func(ck *dynamo.Checkpoint) {
			if err := writeCheckpoint(*ckptFile, ck); err != nil {
				log.Errorf("dynamosim: checkpoint write failed: %v", err)
			}
		}))
	}
	// SIGINT/SIGTERM cancel the run instead of killing the process: the
	// machine captures a final checkpoint (with -ckpt) and unwinds.
	interrupt := make(chan struct{})
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-signals
		signal.Stop(signals)
		close(interrupt)
	}()
	opts = append(opts, dynamo.WithInterrupt(interrupt))

	session, err := dynamo.New(cfg, opts...)
	if err != nil {
		log.Fatal(err)
	}
	var res *dynamo.Result
	if *resumeFile != "" {
		f, err := os.Open(*resumeFile)
		if err != nil {
			log.Fatal(err)
		}
		ck, err := dynamo.ReadCheckpoint(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		log.Infof("dynamosim: resuming from %s (event %d)", *resumeFile, ck.Event)
		res, err = session.Resume(*wl, ck)
		if err != nil {
			exitRunError(log, err, *ckptFile)
		}
	} else {
		res, err = session.Run(*wl)
		if err != nil {
			exitRunError(log, err, *ckptFile)
		}
	}

	writeFile := func(name string, write func(f *os.File) error) {
		f, err := os.Create(name)
		if err == nil {
			if err = write(f); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	if *profileJSON != "" {
		writeFile(*profileJSON, func(f *os.File) error {
			return dynamo.ContentionReport(prof, bus).WriteJSON(f)
		})
	}
	if *intervalJSON != "" && rec != nil {
		writeFile(*intervalJSON, func(f *os.File) error { return rec.WriteJSON(f) })
	}
	if *intervalCSV != "" && rec != nil {
		writeFile(*intervalCSV, func(f *os.File) error { return rec.WriteCSV(f) })
	}

	if *timeline != "" {
		f, err := os.Create(*timeline)
		if err != nil {
			log.Fatal(err)
		}
		if err := bus.WriteTimeline(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("workload        %s\n", *wl)
	fmt.Printf("policy          %s\n", res.Policy)
	fmt.Printf("cycles          %d\n", res.Cycles)
	fmt.Printf("instructions    %d\n", res.Instructions)
	fmt.Printf("AMOs            %d (APKI %.2f; %d AtomicLoads, %d AtomicStores)\n",
		res.AMOs, res.APKI, res.AMOLoads, res.AMOStores)
	fmt.Printf("placement       %d near-local, %d near-fetch, %d far\n",
		res.NearLocal, res.NearTxn, res.Far)
	fmt.Printf("avg AMO latency %.1f cycles\n", res.AvgAMOLatency)
	fmt.Printf("NoC             %d messages, %d flits, %d flit-hops\n",
		res.NoC.Messages, res.NoC.Flits, res.NoC.FlitHops)
	fmt.Printf("memory          %d reads, %d writes\n", res.Mem.Reads, res.Mem.Writes)
	fmt.Printf("dynamic energy  %.2f uJ (caches %.1f%%, NoC %.1f%%, memory %.1f%%)\n",
		res.Energy.Total()/1e6,
		100*res.Energy.Caches/res.Energy.Total(),
		100*res.Energy.NoC/res.Energy.Total(),
		100*res.Energy.Memory/res.Energy.Total())
	if res.Check != nil {
		fmt.Printf("sanitizer       clean (%d periodic audits, %d release audits, max %d MSHRs, max %d blocked lines)\n",
			res.Check.Audits, res.Check.ReleaseAudits, res.Check.MaxMSHRs, res.Check.MaxBusyLines)
	}
	if res.HostPerf != nil {
		fmt.Print(res.HostPerf.Summary())
	}
	if prof != nil {
		fmt.Println("\ncontention profile (hottest AMO lines):")
		fmt.Print(dynamo.ContentionReport(prof, bus).Table())
	}
	if rec != nil {
		fmt.Printf("\ninterval telemetry: %d records of %d cycles", rec.Len(), *interval)
		if d := rec.Dropped(); d > 0 {
			fmt.Printf(" (%d oldest dropped)", d)
		}
		fmt.Println()
	}
	if *hist {
		fmt.Println("\nlatency histograms (cycles):")
		fmt.Print(res.Obs.Table())
		if len(res.Obs.Spans) > 0 {
			fmt.Println("\noccupancy and stall spans (cycles):")
			fmt.Print(res.Obs.SpanTable())
		}
		if len(res.Obs.Counters) > 0 {
			fmt.Println("\nobservability counters:")
			fmt.Print(res.Obs.CounterTable())
		}
	}
	if *detail {
		fmt.Println("\nraw counters:")
		fmt.Print(res.Detail)
	}
}
