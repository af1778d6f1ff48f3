// Command perfbench is the repository's benchmark. It runs one workload
// of the DynAMO reproduction end to end for a fixed time — the quick
// paper suite cold, warm, through an in-process worker fleet, or
// checkpoint resume — checks its outputs, and prints every metric as
// "name value unit", then a one-line JSON result.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	          [--out SET.jsonl] [--spans FILE] [--smoke] [--golden FILE]
//	perfbench check [--spec BENCHMARK.json] SET_A.jsonl SET_B.jsonl
//	perfbench golden [--smoke] [--seeds 1-24]
//
// --trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
// prints its per-layer metrics and writes benchmark-side spans in the
// Chrome trace-event format (open them in ui.perfetto.dev). --out appends
// the run's record to a set file that check compares against another.
// golden prints the table digests the correctness check expects.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dynamo/perfbench/measure"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation and returns the process exit code: 0 for a
// correct run, 1 for a failed or incorrect one, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "check":
			return checkCmd(args[1:], stdout, stderr)
		case "golden":
			return goldenCmd(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadList()+", or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 12, "length of the measured window")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics and writes spans")
	out := fs.String("out", "", "append this run's record to a set file (JSON lines)")
	spansPath := fs.String("spans", "", "span file for --trace 1 (default .bench_build/spans-WORKLOAD-SEED.json)")
	smoke := fs.Bool("smoke", false, "smoke length: one experiment id, 5 warm passes, 2 resume jobs")
	goldenPath := fs.String("golden", "", "golden digest file (default: the one built in)")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark spec naming the metrics to print")
	work := fs.String("work", ".bench_build", "directory for scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *name == "" || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload NAME, --trace 0|1 and --seconds > 0")
		fs.Usage()
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	for _, n := range names {
		if findWorkload(n) == nil {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", n, workloadList())
			return 2
		}
	}
	gold, err := loadGolden(*goldenPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// One process, two processors: every workload runs at most two
	// simulations, slots and client connections at once.
	runtime.GOMAXPROCS(2)

	digests := map[string]string{}
	code := 0
	for _, n := range names {
		dir, err := os.MkdirTemp(*work, "run-")
		if err != nil {
			if err = os.MkdirAll(*work, 0o755); err == nil {
				dir, err = os.MkdirTemp(*work, "run-")
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		e := &env{
			seed:    *seed,
			seconds: time.Duration(*seconds * float64(time.Second)),
			smoke:   *smoke,
			dir:     dir,
			golden:  gold,
			log:     stderr,
		}
		if *trace == 1 {
			e.spans = newRecorder()
		}
		spans := *spansPath
		if spans == "" {
			spans = filepath.Join(*work, fmt.Sprintf("spans-%s-%d.json", n, *seed))
		}
		rc := runOne(e, n, *specPath, spans, *out, stdout, stderr)
		os.RemoveAll(dir)
		if rc.code != 0 {
			code = rc.code
		}
		if rc.digest != "" {
			digests[n] = rc.digest
		}
	}
	if *name == "all" && code == 0 {
		if err := agree(digests); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			code = 1
		}
	}
	return code
}

// agree checks that every suite workload rendered the same tables for the
// seed they share.
func agree(digests map[string]string) error {
	var first, firstName string
	for _, n := range []string{"suite-cold", "suite-warm", "fleet"} {
		d, ok := digests[n]
		if !ok {
			continue
		}
		if first == "" {
			first, firstName = d, n
			continue
		}
		if d != first {
			return fmt.Errorf("tables differ: %s %s vs %s %s", firstName, short(first), n, short(d))
		}
	}
	return nil
}

// runOutcome is what one workload invocation reports back to run.
type runOutcome struct {
	code   int
	digest string // tables digest of the seed's first pass, for -workload all
}

func runOne(e *env, name, specPath, spansPath, out string, stdout, stderr io.Writer) runOutcome {
	spec, err := measure.ReadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return runOutcome{code: 1}
	}
	w := findWorkload(name)
	var base *result
	if e.spans != nil {
		// A traced run first runs the workload untraced, for the tracing
		// overhead; both runs must be correct.
		untraced := *e
		untraced.spans = nil
		if base, err = w.run(&untraced); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s untraced: %v\n", name, err)
			return runOutcome{code: 1}
		}
	}
	res, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return runOutcome{code: 1}
	}
	var metrics map[string]measure.Value
	if e.spans == nil {
		metrics, err = endToEnd(e, res)
	} else {
		metrics, err = perLayer(e, w, res, base, spec.PerLayer)
		if err == nil {
			err = e.spans.write(spansPath)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return runOutcome{code: 1}
	}
	want := spec.EndToEnd
	if e.spans != nil {
		want = spec.PerLayer
	}
	rec, err := emit(stdout, e, name, res, want, metrics)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return runOutcome{code: 1}
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: INCORRECT: %s\n", name, p)
	}
	if out != "" {
		if err := measure.AppendRecord(out, rec); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return runOutcome{code: 1}
		}
	}
	if !rec.Correct || rec.FailedRatio() > 0 {
		return runOutcome{code: 1, digest: res.digest}
	}
	return runOutcome{digest: res.digest}
}
