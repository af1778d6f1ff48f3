package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynamo/perfbench/measure"
)

const specPath = "../BENCHMARK.json"

// runSmoke runs one workload at smoke length and returns its exit code
// and standard output.
func runSmoke(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--smoke", "--seconds", "1", "--spec", specPath, "--work", t.TempDir()}, args...)
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// lastResult parses the JSON line a run prints last.
func lastResult(t *testing.T, stdout string) measure.Result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var r measure.Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout)
	}
	return r
}

func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	spec, err := measure.ReadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"--workload", w.Name, "--seed", "1", "--trace", trace}
			want := spec.EndToEnd
			if trace == "1" {
				args = append(args, "--spans", filepath.Join(t.TempDir(), "spans.json"))
				want = spec.PerLayer
			}
			code, stdout, stderr := runSmoke(t, args...)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w.Name, trace, code, stderr)
			}
			printed := map[string]string{}
			for _, line := range strings.Split(stdout, "\n") {
				if f := strings.Fields(line); len(f) == 3 {
					printed[f[0]] = f[2]
				}
			}
			r := lastResult(t, stdout)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %s: result %+v", w.Name, trace, r)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics in the result, spec lists %d", w.Name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				if printed[m.Name] != m.Unit {
					t.Errorf("%s trace %s: %s printed with unit %q, want %q", w.Name, trace, m.Name, printed[m.Name], m.Unit)
				}
				if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s trace %s: %s missing from the result", w.Name, trace, m.Name)
				}
			}
		}
	}
}

func TestSmokeWrongGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload end to end")
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	bad := `{"tables_sha256": {"smoke": {"1": "` + strings.Repeat("0", 64) + `"}}}`
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runSmoke(t, "--workload", "suite-cold", "--seed", "1", "--trace", "0", "--golden", path)
	if code == 0 {
		t.Fatalf("wrong golden digest exited 0\n%s", stderr)
	}
	if r := lastResult(t, stdout); r.Correct {
		t.Fatal("wrong golden digest reported correct")
	}
	if !strings.Contains(stderr, "golden") {
		t.Fatalf("stderr does not name the golden mismatch:\n%s", stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{},
		{"--workload", "nope", "--trace", "0"},
		{"--workload", "suite-cold", "--trace", "2"},
		{"check", "only-one.jsonl"},
	} {
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

func TestRouteOf(t *testing.T) {
	for path, want := range map[string][2]string{
		"/v1/work/lease":            {"lease", ""},
		"/v1/work/abc/heartbeat":    {"heartbeat", "abc"},
		"/v1/work/abc/result":       {"commit", "abc"},
		"/v1/sweeps/s000001-abcdef": {"other", ""},
	} {
		route, digest := routeOf(path)
		if route != want[0] || digest != want[1] {
			t.Errorf("routeOf(%q) = %q, %q; want %q, %q", path, route, digest, want[0], want[1])
		}
	}
}
