package experiments

import (
	"bytes"
	"strings"
	"testing"

	"dynamo/internal/machine"
	"dynamo/internal/runner"
	"dynamo/internal/workload"
)

// quickSuite runs experiments at a scale where unit tests stay fast.
func quickSuite() *Suite {
	return NewSuite(Options{Threads: 4, Scale: 0.08, Seed: 1})
}

func TestOptionsFill(t *testing.T) {
	o := Options{}.fill()
	if o.Threads != 32 || o.Seed != 1 || o.Scale != 1 || o.Workers < 1 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	ids := []string{"fig1", "table1", "table2", "table3", "fig6", "fig7",
		"fig8", "fig9", "energy", "fig10", "hwcost", "fig11", "table4", "ablation", "dse",
		"latency", "profile"}
	if len(All()) != len(ids) {
		t.Fatalf("All() has %d experiments, want %d", len(All()), len(ids))
	}
	for _, id := range ids {
		if _, err := Find(id); err != nil {
			t.Errorf("Find(%q): %v", id, err)
		}
	}
	if _, err := Find("bogus"); err == nil {
		t.Error("unknown experiment found")
	}
}

func TestComputedTables(t *testing.T) {
	s := quickSuite()
	for _, id := range []string{"table1", "table2", "table4", "hwcost"} {
		e, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

func TestTableIMatchesPaper(t *testing.T) {
	s := quickSuite()
	tab, err := s.TableI()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"N", "N", "N", "N", "N"},
		{"N", "N", "F", "F", "F"},
		{"N", "N", "N", "N", "F"},
		{"N", "N", "F", "N", "F"},
		{"N", "N", "F", "F", "N"},
	}
	for i, row := range tab.Rows {
		for j, cell := range row[1:] {
			if cell != want[i][j] {
				t.Fatalf("Table I row %d: %v", i, row)
			}
		}
	}
}

func TestTableIIIListsAllWorkloads(t *testing.T) {
	s := quickSuite()
	tab, err := s.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 21 {
		t.Fatalf("Table III has %d rows", len(tab.Rows))
	}
}

// raceEnabled is set under the race detector, whose sync.Pool drops
// items at random, so fmt allocates a varying number of times.
var raceEnabled bool

// TestTableIIIBuildsNothing: Table III prints footprints from the specs'
// sizes, not from built instances. Rendering its 21 rows allocates 62
// times; building even the cheapest workload (radiosity) allocates about
// ten more, and building all 21 over ten thousand.
func TestTableIIIBuildsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	s := quickSuite()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.TableIII(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 70 {
		t.Errorf("TableIII allocates %.0f times per call, want at most 70 (no workload builds)", allocs)
	}
}

func TestSysVariants(t *testing.T) {
	base := machine.DefaultConfig()
	cases := []struct {
		name  string
		check func(machine.Config) bool
	}{
		{"", func(c machine.Config) bool { return c.Chi.Mesh.RouteLatency == base.Chi.Mesh.RouteLatency }},
		{"noc-1c", func(c machine.Config) bool { return c.Chi.Mesh.RouteLatency == 0 }},
		{"noc-3c", func(c machine.Config) bool { return c.Chi.Mesh.RouteLatency == 2 }},
		{"half-lat", func(c machine.Config) bool { return c.Chi.Mem.Latency == base.Chi.Mem.Latency/2 }},
		{"double-lat", func(c machine.Config) bool { return c.Chi.Mem.Latency == base.Chi.Mem.Latency*2 }},
		{"amt-e64-w2-c16", func(c machine.Config) bool {
			return c.AMT.Entries == 64 && c.AMT.Ways == 2 && c.AMT.CounterMax == 16
		}},
	}
	for _, c := range cases {
		cfg := machine.DefaultConfig()
		if err := runner.ApplyVariant(c.name, &cfg); err != nil {
			t.Fatalf("%q: %v", c.name, err)
		}
		if !c.check(cfg) {
			t.Errorf("%q not applied", c.name)
		}
	}
	cfg := machine.DefaultConfig()
	if err := runner.ApplyVariant("nonsense", &cfg); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestRunCachesResults(t *testing.T) {
	s := quickSuite()
	key := runKey{workload: "tc", policy: "all-near", threads: 2}
	r1, err := s.run(key)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.run(key)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("second run not served from cache")
	}
	// The base alias shares the cache entry.
	key.sysVariant = "base"
	r3, err := s.run(key)
	if err != nil {
		t.Fatal(err)
	}
	if r3 != r1 {
		t.Fatal("base variant not aliased to the default system")
	}
}

func TestRunValidatesWorkloads(t *testing.T) {
	s := quickSuite()
	if _, err := s.run(runKey{workload: "missing", policy: "all-near", threads: 2}); err == nil {
		t.Fatal("unknown workload ran")
	}
	if _, err := s.run(runKey{workload: "tc", policy: "missing", threads: 2}); err == nil {
		t.Fatal("unknown policy ran")
	}
}

func TestClassSets(t *testing.T) {
	lmh, mh, h := classSets()
	if len(lmh) != 21 {
		t.Fatalf("LMH has %d workloads", len(lmh))
	}
	if len(mh) >= len(lmh) || len(h) >= len(mh) {
		t.Fatalf("set sizes not strictly nested: %d/%d/%d", len(lmh), len(mh), len(h))
	}
	for _, n := range h {
		spec, err := workload.Get(n)
		if err != nil || spec.Class != workload.High {
			t.Fatalf("H set contains %s", n)
		}
	}
}

func TestFigure1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSuite(Options{Threads: 4, Scale: 0.05})
	tab, err := s.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("Figure 1 has %d rows", len(tab.Rows))
	}
}

func TestFigure6Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := quickSuite()
	tab, err := s.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 21 {
		t.Fatalf("Figure 6 has %d rows", len(tab.Rows))
	}
	// Every workload must report a positive APKI.
	for _, row := range tab.Rows {
		if row[2] == "0.000" {
			t.Errorf("%s reports zero APKI", row[0])
		}
	}
}

func TestFigure9Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := quickSuite()
	tab, err := s.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Figure 9 has %d rows", len(tab.Rows))
	}
}

func TestLatencyBreakdownQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := quickSuite()
	tab, err := s.LatencyBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("latency breakdown produced no rows")
	}
	// Every latency policy must contribute class rows and phase sub-rows.
	seen := map[string]bool{}
	phases := 0
	for _, row := range tab.Rows {
		seen[row[0]] = true
		if strings.HasPrefix(row[1], "  ") {
			phases++
		}
	}
	for _, p := range latencyPolicies {
		if !seen[p] {
			t.Errorf("no rows for policy %s", p)
		}
	}
	if phases == 0 {
		t.Fatal("no per-phase rows")
	}
}

func TestLogging(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(Options{Threads: 2, Scale: 0.05, Log: &buf})
	if _, err := s.run(runKey{workload: "tc", policy: "all-near", threads: 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tc") {
		t.Fatalf("log missing run line: %q", buf.String())
	}
}
