// Command dynamo-trace records, inspects and replays memory-operation
// traces, and bisects sanitizer violations down to a minimal event window.
//
// Usage:
//
//	dynamo-trace record -workload histogram -o hist.trace
//	dynamo-trace info hist.trace
//	dynamo-trace replay -policy dynamo-reuse-pn hist.trace
//	dynamo-trace synth -threads 8 -ops 100 -o counter.trace
//	dynamo-trace bisect -workload tc -policy dynamo-metric -max-mshrs 1
//
// bisect reruns a violating sanitized run and binary-searches the
// deterministic event stream for the smallest prefix that already
// violates, printing the minimal event window and the protocol trail
// leading up to the failure. A checkpoint file (-ckpt) taken from the
// same run bounds the search from below, so the replays start near the
// failure instead of from event zero.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"dynamo"
	"dynamo/internal/check"
	"dynamo/internal/cliflags"
	"dynamo/internal/cpu"
	"dynamo/internal/machine"
	"dynamo/internal/trace"
	"dynamo/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	case "synth":
		err = synth(os.Args[2:])
	case "bisect":
		err = bisect(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		cliflags.NewLogger(false, false).Fatalf("dynamo-trace: %v", err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dynamo-trace {record|info|replay|synth|bisect} [flags]")
	os.Exit(2)
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wl := cliflags.Workload(fs)
	policy := cliflags.Policy(fs)
	threads := cliflags.Threads(fs, 8)
	scale := cliflags.Scale(fs, 0.25)
	out := fs.String("o", "out.trace", "output file")
	cpuprofile := cliflags.CPUProfile(fs)
	memprofile := cliflags.MemProfile(fs)
	fs.Parse(args)
	if *wl == "" {
		return fmt.Errorf("record: -workload is required")
	}
	stopProfiles, err := cliflags.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := trace.NewWriter(f)
	s, err := dynamo.New(dynamo.DefaultConfig(),
		dynamo.WithPolicy(*policy),
		dynamo.WithThreads(*threads),
		dynamo.WithScale(*scale),
		dynamo.WithTrace(w))
	if err != nil {
		return err
	}
	res, err := s.Run(*wl)
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded %d operations (%d cycles) to %s\n", w.Count(), res.Cycles, *out)
	return nil
}

func openTrace(path string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.NewReader(f).ReadAll()
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("info: one trace file expected")
	}
	recs, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	perKind := map[trace.Kind]uint64{}
	threads := map[uint16]bool{}
	for _, r := range recs {
		perKind[r.Kind]++
		threads[r.Thread] = true
	}
	fmt.Printf("records  %d\n", len(recs))
	fmt.Printf("threads  %d\n", len(threads))
	for _, k := range []trace.Kind{trace.KindLoad, trace.KindStore, trace.KindAMO, trace.KindAMOStore, trace.KindCompute} {
		fmt.Printf("%-9s %d\n", k, perKind[k])
	}
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	policy := fs.String("policy", "all-near", "placement policy for the replay")
	cpuprofile := cliflags.CPUProfile(fs)
	memprofile := cliflags.MemProfile(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("replay: one trace file expected")
	}
	stopProfiles, err := cliflags.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	recs, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	progs, err := trace.Replay(recs)
	if err != nil {
		return err
	}
	cfg := machine.DefaultConfig()
	cfg.Policy = *policy
	m, err := machine.New(cfg)
	if err != nil {
		return err
	}
	res, err := m.Run(progs)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d records under %s: %d cycles, %d AMOs (%d near, %d far)\n",
		len(recs), *policy, res.Cycles, res.AMOs, res.NearLocal+res.NearTxn, res.Far)
	return nil
}

func synth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	threads := fs.Int("threads", 8, "threads")
	ops := fs.Int("ops", 100, "atomic updates per thread")
	counters := fs.Int("counters", 4, "shared counters")
	noReturn := fs.Bool("noreturn", true, "use AtomicStore semantics")
	out := fs.String("o", "synth.trace", "output file")
	fs.Parse(args)
	recs := trace.Synthesize(*threads, *ops, *counters, *noReturn)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := trace.NewWriter(f)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %d records to %s\n", len(recs), *out)
	return nil
}

// bisect localises the first sanitizer violation of a deterministic run.
// It executes the full sanitized run (expecting a violation), then
// binary-searches the event index: each probe rebuilds the machine from
// scratch, replays the deterministic event stream to the candidate event,
// and asks whether the prefix already violated (the run aborted with a
// violation, or the paused state fails a coherence audit). The result is
// the smallest violating prefix — a one-event window around the failure —
// plus the violation's protocol trail.
func bisect(args []string) error {
	fs := flag.NewFlagSet("bisect", flag.ExitOnError)
	wl := cliflags.Workload(fs)
	policy := cliflags.Policy(fs)
	threads := cliflags.Threads(fs, 8)
	seed := cliflags.Seed(fs)
	scale := cliflags.Scale(fs, 0.25)
	input := cliflags.Input(fs)
	chaosSeed := cliflags.ChaosSeed(fs)
	chaosLevel := cliflags.ChaosLevel(fs)
	maxMSHRs := fs.Int("max-mshrs", 0, "tightened sanitizer MSHR bound (0 = default)")
	maxBusy := fs.Int("max-busy-lines", 0, "tightened sanitizer busy-line bound (0 = default)")
	ckptFile := fs.String("ckpt", "", "checkpoint from the same run bounding the search from below")
	cpuprofile := cliflags.CPUProfile(fs)
	memprofile := cliflags.MemProfile(fs)
	verbose, quiet := cliflags.Verbosity(fs)
	fs.Parse(args)
	log := cliflags.NewLogger(*verbose, *quiet)
	if *wl == "" {
		return fmt.Errorf("bisect: -workload is required")
	}
	stopProfiles, err := cliflags.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	// Every probe rebuilds the run identically; determinism makes replay-
	// to-event-N a pure function of N.
	build := func() (*machine.Machine, []cpu.Program, error) {
		spec, err := workload.Get(*wl)
		if err != nil {
			return nil, nil, err
		}
		inst, err := spec.Build(workload.Params{
			Threads: *threads,
			Seed:    *seed,
			Scale:   *scale,
			Input:   *input,
		})
		if err != nil {
			return nil, nil, err
		}
		cfg := machine.DefaultConfig()
		cfg.Policy = *policy
		cfg.Check = &check.Config{MaxMSHRs: *maxMSHRs, MaxBusyLines: *maxBusy}
		cfg.ChaosSeed, cfg.ChaosLevel = *chaosSeed, *chaosLevel
		m, err := machine.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		if inst.Setup != nil {
			inst.Setup(m.Sys.Data)
		}
		return m, inst.Programs, nil
	}

	// probe reports whether the prefix of the run up to event has already
	// violated: the replay aborts with a violation on the way there, or the
	// paused state fails a full coherence audit.
	probe := func(event uint64) (bool, *check.Violation, error) {
		m, progs, err := build()
		if err != nil {
			return false, nil, err
		}
		res, err := m.RunTo(progs, event)
		if err != nil {
			var v *check.Violation
			if errors.As(err, &v) {
				return true, v, nil
			}
			return false, nil, err
		}
		if res != nil {
			// Completed cleanly before the pause target: this prefix is the
			// whole run minus the drain, so the violation is later.
			return false, nil, nil
		}
		if v := m.Sys.AuditCoherence(); v != nil {
			return true, v, nil
		}
		return false, nil, nil
	}

	m, progs, err := build()
	if err != nil {
		return err
	}
	res, err := m.Run(progs)
	if err == nil {
		fmt.Printf("run completed clean (%d events) — nothing to bisect\n", res.SimEvents)
		return nil
	}
	var first *check.Violation
	if !errors.As(err, &first) {
		return fmt.Errorf("bisect: run failed without a violation: %w", err)
	}
	hi := m.Sys.Engine.Executed()
	fmt.Printf("full run violated after %d events: %s violation at cycle %d\n",
		hi, first.Kind, first.Time)

	lo := uint64(0)
	if *ckptFile != "" {
		f, err := os.Open(*ckptFile)
		if err != nil {
			return err
		}
		ck, err := dynamo.ReadCheckpoint(f)
		f.Close()
		if err != nil {
			return err
		}
		if ck.Event >= hi {
			return fmt.Errorf("bisect: checkpoint at event %d is not below the failure at %d", ck.Event, hi)
		}
		// The checkpoint must be a clean prefix for the search invariant to
		// hold; fall back to a full search when it is not.
		if bad, _, err := probe(ck.Event); err != nil {
			return err
		} else if bad {
			log.Infof("bisect: checkpoint at event %d already violates; searching from event 0", ck.Event)
		} else {
			lo = ck.Event
		}
	}

	span := hi - lo
	probes := 0
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		bad, v, err := probe(mid)
		if err != nil {
			return err
		}
		probes++
		if bad {
			hi, first = mid, v
		} else {
			lo = mid
		}
		log.Infof("bisect: events (%d, %d] after %d replays", lo, hi, probes)
	}

	fmt.Printf("first violating prefix: %d events (window (%d, %d], %d replays over a %d-event span)\n",
		hi, lo, hi, probes, span)
	fmt.Println(first.Error())
	return nil
}
