package dynamo

import (
	"bytes"
	"strings"
	"testing"

	"dynamo/internal/regress"
)

// TestNoProbeLeaksAcrossWorkloads runs every registered workload with the
// probe bus attached and asserts every transaction begun on the bus was
// ended: a leak means some path in the machine loses a TxnID, which skews
// class histograms and interval deltas.
func TestNoProbeLeaksAcrossWorkloads(t *testing.T) {
	for _, wl := range Workloads() {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			bus := NewObs()
			s := newSession(t, smallConfig(),
				WithThreads(4), WithScale(0.05), WithObs(bus))
			if _, err := s.Run(wl); err != nil {
				t.Fatal(err)
			}
			if leaks := bus.Leaks(); len(leaks) != 0 {
				t.Fatalf("%d leaked transactions, first: %+v", len(leaks), leaks[0])
			}
		})
	}
}

// profiledHistogramRun is one fully-instrumented run: contention profile
// JSON, interval telemetry CSV+JSON, and the regression snapshot.
func profiledHistogramRun(t *testing.T) (profJSON, csv, seriesJSON, snapJSON []byte) {
	t.Helper()
	bus := NewObs()
	prof := NewProfiler(16)
	rec := NewIntervalRecorder(5000, 0)
	s := newSession(t, smallConfig(),
		WithPolicy("dynamo-reuse-pn"), WithThreads(4), WithScale(0.1),
		WithObs(bus), WithProfile(prof), WithInterval(rec))
	res, err := s.Run("histogram")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no interval records collected")
	}
	var pb, cb, jb, sb bytes.Buffer
	if err := ContentionReport(prof, bus).WriteJSON(&pb); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	meta := map[string]string{"workload": "histogram", "policy": "dynamo-reuse-pn"}
	if err := regress.FromResult(meta, res).WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return pb.Bytes(), cb.Bytes(), jb.Bytes(), sb.Bytes()
}

// TestProfileExportsDeterministic asserts every profiling artefact is
// byte-identical across identical-seed runs, and that hot lines resolve to
// the workload's tagged sites.
func TestProfileExportsDeterministic(t *testing.T) {
	p1, c1, j1, s1 := profiledHistogramRun(t)
	p2, c2, j2, s2 := profiledHistogramRun(t)
	if !bytes.Equal(p1, p2) {
		t.Error("contention profile JSON differs across identical runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("interval CSV differs across identical runs")
	}
	if !bytes.Equal(j1, j2) {
		t.Error("interval JSON differs across identical runs")
	}
	if !bytes.Equal(s1, s2) {
		t.Error("regression snapshot differs across identical runs")
	}
	// The histogram kernel hammers its bucket array; the profiler must
	// attribute the hot lines to the tagged "buckets" site.
	if !strings.Contains(string(p1), `"site": "buckets"`) {
		t.Errorf("profile lacks buckets attribution:\n%s", p1)
	}
	// A snapshot diffed against itself reports no drift.
	a, err := regress.Read(bytes.NewReader(s1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := regress.Read(bytes.NewReader(s2))
	if err != nil {
		t.Fatal(err)
	}
	if d := regress.Diff(a, b, regress.Tolerance{}); len(d) != 0 {
		t.Fatalf("self-diff drift: %+v", d)
	}
}

// TestProbeVocabulary locks the discovery lists the dynamosim -list flag
// prints.
func TestProbeVocabulary(t *testing.T) {
	if got := len(ProbeClasses()); got != 7 {
		t.Fatalf("ProbeClasses() = %d entries", got)
	}
	if got := len(ProbePhases()); got != 9 {
		t.Fatalf("ProbePhases() = %d entries", got)
	}
	if got := ProbeCounters(); len(got) == 0 || got[0] != "cpu.stall-cycles" {
		t.Fatalf("ProbeCounters() = %v", got)
	}
	if got := ProbeSpans(); len(got) == 0 || got[0] != "burst" {
		t.Fatalf("ProbeSpans() = %v", got)
	}
}

// TestProfileRequiresObs guards the facade invariant: a profiler without a
// bus would silently record nothing.
func TestProfileRequiresObs(t *testing.T) {
	s := newSession(t, smallConfig(),
		WithThreads(4), WithScale(0.1), WithProfile(NewProfiler(8)))
	_, err := s.Run("histogram")
	if err == nil || !strings.Contains(err.Error(), "requires WithObs") {
		t.Fatalf("err = %v", err)
	}
}
