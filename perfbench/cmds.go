package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dynamo/perfbench/measure"
)

// emit prints every wanted metric as "name value unit", in spec order,
// then the one-line JSON result, and returns the run's record. A metric
// the spec names but the run did not measure, or measured in another
// unit, is an error: the spec and the code must agree.
func emit(w io.Writer, e *env, name string, r *result, want []measure.Metric, got map[string]measure.Value) (measure.Record, error) {
	rec := measure.Record{
		Workload: name,
		Seed:     e.seed,
		Trace:    e.spans != nil,
		Result: measure.Result{
			Correct:   len(r.problems) == 0,
			Attempted: max(r.attempted, 1),
			Failed:    r.failed,
			Metrics:   map[string]measure.Value{},
		},
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return rec, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if v.Unit != m.Unit {
			return rec, fmt.Errorf("metric %s measured in %s, spec says %s", m.Name, v.Unit, m.Unit)
		}
		rec.Metrics[m.Name] = v
		fmt.Fprintf(w, "%s %s %s\n", m.Name, strconv.FormatFloat(v.Value, 'f', -1, 64), v.Unit)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return rec, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return rec, nil
}

// checkCmd compares two sets of runs against the spec's bounds and
// prints one row per workload. It exits 0 only when every row passes.
func checkCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark spec with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench check [--spec BENCHMARK.json] SET_A.jsonl SET_B.jsonl")
		return 2
	}
	spec, err := measure.ReadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	var sets [2][]measure.Record
	for i := range sets {
		if sets[i], err = measure.ReadRecords(fs.Arg(i)); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	code := 0
	for _, row := range measure.Check(spec, sets[0], sets[1]) {
		status := "ok"
		if !row.Ok() {
			status, code = "FAIL", 1
		}
		var cells []string
		for _, m := range row.Metrics {
			if measure.Exact(m.Metric) {
				if m.Verdict != measure.OK {
					cells = append(cells, fmt.Sprintf("%s %s (%g vs %g)", m.Metric, m.Verdict, m.MedianA, m.MedianB))
				}
				continue
			}
			cells = append(cells, fmt.Sprintf("%s %+.1f%% %s (spread %.1f%%/%.1f%%)",
				m.Metric, 100*m.Change, m.Verdict, 100*m.SpreadA, 100*m.SpreadB))
		}
		cells = append(cells, row.Failures...)
		fmt.Fprintf(stdout, "%-11s %-4s runs %d/%d  %s\n", row.Workload, status, row.RunsA, row.RunsB, strings.Join(cells, "; "))
	}
	return code
}

// goldenCmd prints the tables digest of one cold suite pass per seed, as
// the tables_sha256 entry of golden.json for that suite size.
func goldenCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	fs.SetOutput(stderr)
	smoke := fs.Bool("smoke", false, "the smoke suite (one experiment id) instead of the quick suite")
	seeds := fs.String("seeds", "1-24", "seed range FROM-TO")
	work := fs.String("work", ".bench_build", "directory for scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var from, to int64
	if _, err := fmt.Sscanf(*seeds, "%d-%d", &from, &to); err != nil || from > to {
		fmt.Fprintf(stderr, "perfbench: bad --seeds %q\n", *seeds)
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	e := &env{smoke: *smoke, log: stderr}
	out := map[string]string{}
	for s := from; s <= to; s++ {
		dir, err := os.MkdirTemp(*work, "golden-")
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		p := runPass(e, passSpec{ids: e.ids(), seed: s, cacheDir: dir})
		os.RemoveAll(dir)
		if p.err != nil || p.stats.Errors > 0 {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v (%d failed jobs)\n", s, p.err, p.stats.Errors)
			return 1
		}
		out[strconv.FormatInt(s, 10)] = p.digest
	}
	data, err := json.MarshalIndent(map[string]map[string]string{e.suiteName(): out}, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
