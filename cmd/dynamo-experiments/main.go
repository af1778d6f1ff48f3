// Command dynamo-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	dynamo-experiments [flags] [experiment ...]
//
// With no arguments (or the pseudo-id "all") it runs every experiment in
// paper order. Experiment ids: fig1, table1, table2, table3, fig6, fig7,
// fig8, fig9, energy, fig10, hwcost, fig11, table4, ablation, dse,
// latency, profile.
//
// All simulations run through the sweep runner: identical runs are
// deduplicated across experiments, executed on -jobs workers, and
// persisted under -cache-dir — a second invocation with the same flags
// simulates nothing. Tables go to stdout and are byte-identical for any
// -jobs value and any cache state; timing, progress and cache statistics
// go to stderr (-v adds per-run detail, -quiet drops the chatter).
//
// A sweep is observable while it runs: on a terminal a live progress line
// tracks done/total jobs, cache hits and the ETA, and -serve exposes
// /metrics (Prometheus text format), /progress (JSON snapshot) and /jobs
// (recent per-job trace spans) over HTTP, with a structured JSONL job
// journal written next to the cache (-serve-grace keeps the endpoints up
// after the sweep finishes, for a final scrape).
//
// A sweep can run remotely: -remote points at a dynamo-serve sweep
// service, and every cache-missing simulation executes on the server
// instead of locally. Results come back as the server's cache-entry
// bytes, so the printed tables are byte-identical to a local run.
//
// A sweep is crash-safe: with -ckpt-every, running jobs periodically
// checkpoint into the cache directory, and SIGINT/SIGTERM stop the sweep
// gracefully (in-flight jobs checkpoint, finished results stay cached).
// Re-invoking with the same flags restores the unfinished jobs from their
// checkpoints and completes the sweep with byte-identical tables.
// Transiently failed jobs (a recovered panic, a watchdog stall) are
// retried up to -retries times before quarantine.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"dynamo"
	"dynamo/internal/cliflags"
	"dynamo/internal/experiments"
	"dynamo/internal/telemetry"
)

func main() {
	threads := cliflags.Threads(flag.CommandLine, 32)
	seed := cliflags.Seed(flag.CommandLine)
	scale := cliflags.Scale(flag.CommandLine, 1.0)
	jobs := cliflags.Jobs(flag.CommandLine)
	cacheDir := cliflags.CacheDir(flag.CommandLine, cliflags.DefaultCacheDir)
	quick := flag.Bool("quick", false, "scaled-down suite (8 threads, scale 0.05) unless -threads/-scale are given")
	verbose, quiet := cliflags.Verbosity(flag.CommandLine)
	csvDir := flag.String("csv", "", "also write each experiment's table as CSV into this directory")
	ckptEvery := cliflags.CkptEvery(flag.CommandLine)
	retries := cliflags.Retries(flag.CommandLine)
	remote := flag.String("remote", "", "run simulations on a dynamo-serve sweep service at this address instead of locally")
	remoteDeadline := flag.Duration("remote-deadline", 0, "with -remote, bound each remote job's wait and stamp sweeps with this wire deadline (0 = none)")
	serve := cliflags.Serve(flag.CommandLine)
	serveGrace := flag.Duration("serve-grace", 0, "with -serve, keep the telemetry endpoints up this long after the sweep finishes")
	statsJSON := flag.String("stats-json", "", "write machine-readable sweep stats as JSON to this file")
	cpuprofile := cliflags.CPUProfile(flag.CommandLine)
	memprofile := cliflags.MemProfile(flag.CommandLine)
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	log := cliflags.NewLogger(*verbose, *quiet)

	stopProfiles, err := cliflags.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	if *quick {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["threads"] {
			*threads = 8
		}
		if !set["scale"] {
			*scale = 0.05
		}
	}

	// SIGINT/SIGTERM cancel the sweep instead of killing the process:
	// queued jobs abort, running jobs checkpoint (with -ckpt-every) and
	// stop, completed results are already in the cache.
	interrupt := make(chan struct{})
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-signals
		signal.Stop(signals)
		close(interrupt)
	}()

	opts := experiments.Options{
		Threads:        *threads,
		Seed:           *seed,
		Scale:          *scale,
		Workers:        *jobs,
		CacheDir:       *cacheDir,
		Retries:        *retries,
		CkptEvery:      *ckptEvery,
		Interrupt:      interrupt,
		Log:            log.DebugWriter(),
		Remote:         *remote,
		RemoteDeadline: *remoteDeadline,
	}
	if *remote != "" {
		// The server owns the durable cache and the checkpoints; keeping a
		// local result cache on top is allowed (-cache-dir), but local
		// checkpointing of remote jobs is meaningless.
		opts.CkptEvery = 0
		log.Infof("dynamo-experiments: running simulations on %s", *remote)
	}

	// Telemetry runs whenever something consumes it: the -serve endpoints
	// or the interactive progress line. It observes the sweep only —
	// tables on stdout are byte-identical with it on or off.
	liveProgress := !*quiet && !*verbose && stderrIsTTY()
	var tel *telemetry.Sweep
	if *serve != "" || liveProgress {
		var topts telemetry.SweepOptions
		if *serve != "" && *cacheDir != "" {
			// The structured job journal lives next to the cache it
			// describes; a journal failure degrades observability, never
			// the sweep.
			if err := os.MkdirAll(*cacheDir, 0o755); err == nil {
				if j, err := telemetry.OpenJournal(filepath.Join(*cacheDir, "journal.jsonl")); err == nil {
					topts.Journal = j
				} else {
					log.Errorf("dynamo-experiments: %v", err)
				}
			}
		}
		tel = telemetry.NewSweep(topts)
		defer tel.Close()
		opts.Telemetry = tel
	}
	var srv *telemetry.Server
	if *serve != "" {
		srv, err = telemetry.Serve(*serve, tel)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Infof("dynamo-experiments: serving telemetry on http://%s", srv.Addr())
	}

	stopProgress := func() {}
	if liveProgress {
		stopProgress = startProgressLine(tel)
	}

	suite := experiments.NewSuite(opts)

	ids := flag.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
	}
	if len(ids) == 0 {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}
	suiteStart := time.Now()
	for _, id := range ids {
		e, err := experiments.Find(id)
		if err != nil {
			stopProgress()
			log.Fatal(err)
		}
		start := time.Now()
		table, err := e.Run(suite)
		if err != nil {
			stopProgress()
			if errors.Is(err, dynamo.ErrInterrupted) {
				st := suite.Runner().Stats()
				log.Errorf("dynamo-experiments: interrupted during %s (%d jobs cancelled, %d results cached)",
					e.ID, st.Interrupted, st.Misses+st.DiskHits)
				log.Errorf("dynamo-experiments: re-run with the same flags to continue from the checkpoints in %s",
					*cacheDir)
				os.Exit(130)
			}
			log.Fatalf("%s: %v", e.ID, err)
		}
		clearProgressLine(liveProgress)
		log.Infof("%s: %.1fs", e.ID, time.Since(start).Seconds())
		fmt.Printf("== %s — %s\n\n%s\n", e.ID, e.Title, table)
		if *csvDir != "" {
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				stopProgress()
				log.Fatal(err)
			}
		}
	}
	stopProgress()

	st := suite.Runner().Stats()
	w := log.InfoWriter()
	fmt.Fprintf(w,
		"runner: %d requests -> %d jobs: %d simulated, %d memory hits, %d disk hits, %d evictions",
		st.Requests, st.Submitted, st.Simulated(), st.Hits, st.DiskHits, st.Evictions)
	if st.Retries > 0 {
		fmt.Fprintf(w, ", %d retries", st.Retries)
	}
	if st.Resumed > 0 {
		fmt.Fprintf(w, ", %d resumed", st.Resumed)
	}
	if st.Saved > 0 {
		fmt.Fprintf(w, ", saved %s", st.Saved.Round(time.Millisecond))
	}
	if st.SimEvents > 0 && st.SimTime > 0 {
		fmt.Fprintf(w, ", %d events @ %.2f M events/s",
			st.SimEvents, float64(st.SimEvents)/st.SimTime.Seconds()/1e6)
	}
	fmt.Fprintf(w, " (wall %.1fs, jobs=%d)\n",
		time.Since(suiteStart).Seconds(), suite.Runner().Jobs())
	if st.Simulated() == 0 && st.DiskHits > 0 {
		log.Infof("runner: warm cache — 100%% cache hits, zero simulations executed")
	}
	if *statsJSON != "" {
		if err := writeStatsJSON(*statsJSON, st, suite.Runner().Jobs(), time.Since(suiteStart)); err != nil {
			log.Fatal(err)
		}
	}

	if srv != nil && *serveGrace > 0 {
		// Leave the endpoints up for a final scrape (CI gates, a last
		// Prometheus pull); SIGINT ends the grace period early.
		log.Infof("dynamo-experiments: telemetry stays on http://%s for %s (ctrl-c to stop)",
			srv.Addr(), serveGrace)
		select {
		case <-time.After(*serveGrace):
		case <-interrupt:
		}
	}
}

// stderrIsTTY reports whether stderr is an interactive terminal — the
// live progress line stays off under redirection and in CI.
func stderrIsTTY() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// clearProgressLine erases the in-place progress line so a regular log
// line does not append to it.
func clearProgressLine(active bool) {
	if active {
		fmt.Fprint(os.Stderr, "\r\x1b[K")
	}
}

// startProgressLine refreshes a single in-place stderr line with the
// sweep's live state (done/total, cache hits, retries, ETA) until the
// returned stop function is called.
func startProgressLine(tel *telemetry.Sweep) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				clearProgressLine(true)
				return
			case <-tick.C:
				fmt.Fprintf(os.Stderr, "\r\x1b[K%s", progressLine(tel.Progress()))
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// progressLine renders one human-readable sweep status line.
func progressLine(p telemetry.Progress) string {
	line := fmt.Sprintf("  sweep: %d/%d jobs", p.Finished(), p.TotalJobs)
	if hits := p.MemoryHits + p.DiskHits; hits > 0 {
		line += fmt.Sprintf(", %d cache hits", hits)
	}
	if p.Running > 0 {
		line += fmt.Sprintf(", %d running", p.Running)
	}
	if p.Retries > 0 {
		line += fmt.Sprintf(", %d retries", p.Retries)
	}
	if p.FailedJobs > 0 {
		line += fmt.Sprintf(", %d failed", p.FailedJobs)
	}
	if p.ETASeconds > 0 {
		line += ", ETA " + (time.Duration(p.ETASeconds * float64(time.Second))).Round(time.Second).String()
	}
	return line
}

// writeStatsJSON renders the sweep's runner counters plus derived host
// throughput as a machine-readable file, for tooling that wants one
// sweep's numbers without scraping the stderr stats line.
func writeStatsJSON(path string, st dynamo.RunnerStats, jobs int, wall time.Duration) error {
	out := struct {
		dynamo.RunnerStats
		Jobs         int     `json:"jobs"`
		WallSeconds  float64 `json:"wall_seconds"`
		EventsPerSec float64 `json:"events_per_sec"`
	}{RunnerStats: st, Jobs: jobs, WallSeconds: wall.Seconds()}
	if st.SimEvents > 0 && st.SimTime > 0 {
		out.EventsPerSec = float64(st.SimEvents) / st.SimTime.Seconds()
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
