package measure

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func bound(b float64) *float64 { return &b }

func testSpec() *Spec {
	return &Spec{
		Workloads: []Workload{{Name: "w", Why: "test"}},
		EndToEnd: []Metric{
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: bound(0.25)},
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: bound(0.1)},
		},
		PerLayer: []Metric{{Name: "model.cycles", Unit: "count", Better: "lower"}},
	}
}

// runs builds one untraced record per value of each metric, seeds 1..n.
func runs(setup, ops []float64) []Record {
	var out []Record
	for i := range setup {
		out = append(out, Record{Workload: "w", Seed: int64(i + 1), Result: Result{
			Correct: true, Attempted: 10,
			Metrics: map[string]Value{"setup_s": {Value: setup[i], Unit: "s"}, "ops_per_s": {Value: ops[i], Unit: "1/s"}},
		}})
	}
	return out
}

func verdicts(rows []WorkloadCheck) map[string]Verdict {
	out := map[string]Verdict{}
	for _, m := range rows[0].Metrics {
		out[m.Metric] = m.Verdict
	}
	return out
}

func TestCheckWithinBound(t *testing.T) {
	a := runs([]float64{1, 1, 1, 1}, []float64{100, 101, 99, 100})
	b := runs([]float64{1.1, 1.1, 1.1, 1.1}, []float64{95, 96, 94, 95})
	rows := Check(testSpec(), a, b)
	if v := verdicts(rows); v["setup_s"] != OK || v["ops_per_s"] != OK {
		t.Fatalf("verdicts %v, want both ok", v)
	}
	if !rows[0].Ok() {
		t.Fatal("row not ok")
	}
}

func TestCheckWorseBeyondBound(t *testing.T) {
	a := runs([]float64{1, 1, 1, 1}, []float64{100, 101, 99, 100})
	b := runs([]float64{1.3, 1.3, 1.3, 1.3}, []float64{85, 86, 84, 85})
	rows := Check(testSpec(), a, b)
	if v := verdicts(rows); v["setup_s"] != Worse || v["ops_per_s"] != Worse {
		t.Fatalf("verdicts %v, want both worse", v)
	}
	if rows[0].Ok() {
		t.Fatal("row ok despite regressions")
	}
}

func TestCheckSetupAbsoluteFloor(t *testing.T) {
	// 10 ms -> 40 ms is +300%, but within the 50 ms floor.
	a := runs([]float64{0.01, 0.01, 0.01}, []float64{100, 100, 100})
	b := runs([]float64{0.04, 0.04, 0.04}, []float64{100, 100, 100})
	if v := verdicts(Check(testSpec(), a, b)); v["setup_s"] != OK {
		t.Fatalf("setup_s %s, want ok under the absolute floor", v["setup_s"])
	}
	b = runs([]float64{0.07, 0.07, 0.07}, []float64{100, 100, 100})
	if v := verdicts(Check(testSpec(), a, b)); v["setup_s"] != Worse {
		t.Fatalf("setup_s %s, want worse beyond the floor", v["setup_s"])
	}
}

func TestCheckUnresolvedWhenNoisy(t *testing.T) {
	a := runs([]float64{1, 1, 1, 1}, []float64{50, 100, 150, 100})
	b := runs([]float64{1, 1, 1, 1}, []float64{100, 100, 100, 100})
	rows := Check(testSpec(), a, b)
	if v := verdicts(rows); v["ops_per_s"] != Unresolved {
		t.Fatalf("ops_per_s %s, want unresolved", v["ops_per_s"])
	}
	if rows[0].Ok() {
		t.Fatal("unresolved row reported ok")
	}
	// Unless every run of B beats every run of A.
	b = runs([]float64{1, 1, 1, 1}, []float64{200, 210, 220, 230})
	if v := verdicts(Check(testSpec(), a, b)); v["ops_per_s"] != Better {
		t.Fatalf("ops_per_s %s, want better", v["ops_per_s"])
	}
}

func TestCheckExactCounters(t *testing.T) {
	trace := func(seed int64, cycles float64) Record {
		return Record{Workload: "w", Seed: seed, Trace: true, Result: Result{Correct: true, Attempted: 1,
			Metrics: map[string]Value{"model.cycles": {Value: cycles, Unit: "count"}}}}
	}
	base := runs([]float64{1, 1}, []float64{100, 100})
	a := append(append([]Record(nil), base...), trace(1, 500), trace(2, 600))
	b := append(append([]Record(nil), base...), trace(1, 500), trace(2, 600))
	if v := verdicts(Check(testSpec(), a, b)); v["model.cycles"] != OK {
		t.Fatalf("identical counters: %s", v["model.cycles"])
	}
	b = append(append([]Record(nil), base...), trace(1, 500), trace(2, 601))
	if v := verdicts(Check(testSpec(), a, b)); v["model.cycles"] != Differs {
		t.Fatalf("one-off counter: %s, want differs", v["model.cycles"])
	}
	// Two runs of one seed inside a set must already agree.
	a = append(append([]Record(nil), base...), trace(1, 500), trace(1, 501))
	b = append(append([]Record(nil), base...), trace(1, 500))
	if v := verdicts(Check(testSpec(), a, b)); v["model.cycles"] != Differs {
		t.Fatalf("inconsistent set: %s, want differs", v["model.cycles"])
	}
}

func TestExact(t *testing.T) {
	for name, want := range map[string]bool{
		"model.cycles":            true,
		"chi.rn.events":           true,
		"runner.jobs":             true,
		"checkpoint.replay_share": true,
		"runner.job_ms_p50":       false,
		"service.lease_calls":     false,
		"ops_per_s":               false,
	} {
		if got := Exact(name); got != want {
			t.Errorf("Exact(%q) = %t, want %t", name, got, want)
		}
	}
}

func TestCheckFailedRunsFailTheRow(t *testing.T) {
	a := runs([]float64{1, 1}, []float64{100, 100})
	b := runs([]float64{1, 1}, []float64{100, 100})
	b[1].Failed = 1
	rows := Check(testSpec(), a, b)
	if rows[0].Ok() || len(rows[0].Failures) != 1 {
		t.Fatalf("failures %v, want one failing run", rows[0].Failures)
	}
}

func TestSpecValidation(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Spec){
		"bad name":        func(s *Spec) { s.EndToEnd[1].Name = "ops per s" },
		"duplicate":       func(s *Spec) { s.PerLayer[0].Name = "setup_s" },
		"bound too large": func(s *Spec) { s.EndToEnd[1].Bound = bound(0.3) },
		"missing bound":   func(s *Spec) { s.EndToEnd[1].Bound = nil },
		"no setup_s":      func(s *Spec) { s.EndToEnd = s.EndToEnd[1:] },
		"bad direction":   func(s *Spec) { s.PerLayer[0].Better = "up" },
		"long unit":       func(s *Spec) { s.PerLayer[0].Unit = strings.Repeat("u", 17) },
		"bad unit":        func(s *Spec) { s.PerLayer[0].Unit = "m s" },
	} {
		s := testSpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadSpecRejectsUnknownKeys(t *testing.T) {
	dir := t.TempDir()
	good, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSpec(path); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(good), `"paths"`, `"golden":1,"paths"`, 1)
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSpec(path); err == nil {
		t.Fatal("unknown key accepted")
	}
}

func TestRepositorySpec(t *testing.T) {
	s, err := ReadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 || len(s.PerLayer) > 128 || len(s.EndToEnd) > 16 {
		t.Fatalf("spec sizes out of range: %d workloads, %d end-to-end, %d per-layer",
			len(s.Workloads), len(s.EndToEnd), len(s.PerLayer))
	}
}
