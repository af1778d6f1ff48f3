package dynamo

import (
	"encoding/json"
	"strings"
	"testing"
)

// hostperfRun executes the reference workload with or without the
// self-profiler and returns the result.
func hostperfRun(t *testing.T, perfOn bool) *Result {
	t.Helper()
	cfg := smallConfig()
	opts := []Option{
		WithPolicy("dynamo-reuse-pn"),
		WithThreads(4),
		WithScale(0.05),
	}
	if perfOn {
		opts = append(opts, WithHostPerf())
	}
	s, err := New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run("histogram")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHostPerfReportPopulated asserts WithHostPerf attaches a report with
// self-consistent numbers: every simulated event accounted for, per-kind
// counts summing to the total, and positive derived rates.
func TestHostPerfReportPopulated(t *testing.T) {
	res := hostperfRun(t, true)
	hp := res.HostPerf
	if hp == nil {
		t.Fatal("Result.HostPerf is nil with WithHostPerf")
	}
	if hp.Events != res.SimEvents {
		t.Fatalf("profiler saw %d events, engine executed %d", hp.Events, res.SimEvents)
	}
	var kindSum uint64
	for _, k := range hp.Kinds {
		kindSum += k.Events
	}
	if kindSum != hp.Events {
		t.Fatalf("per-kind counts sum to %d, want %d", kindSum, hp.Events)
	}
	if hp.EventsPerSec <= 0 || hp.NSPerEvent <= 0 || hp.WallNS == 0 {
		t.Fatalf("derived rates not positive: %+v", hp)
	}
	if hp.QueueDepthMax <= 0 {
		t.Fatalf("queue depth never observed: %+v", hp)
	}
	// Each of the four programs is resumed at least to start and to return.
	if hp.Resumes < 8 {
		t.Fatalf("%d program resumptions counted, want at least 8", hp.Resumes)
	}
	// The simulator schedules CPU, RN, HN and NoC events on any real run:
	// attribution must see more than the untagged bucket.
	kinds := map[string]bool{}
	for _, k := range hp.Kinds {
		kinds[k.Kind] = true
	}
	for _, want := range []string{"cpu", "rn", "hn", "noc"} {
		if !kinds[want] {
			t.Fatalf("attribution missing kind %q: %+v", want, hp.Kinds)
		}
	}
	if hp.Summary() == "" {
		t.Fatal("Summary() empty for a populated report")
	}
}

// TestHostPerfDeterminism asserts the profiler is purely observational:
// the serialized simulated result is byte-identical with profiling on or
// off, which also proves HostPerf never leaks into the JSON that backs
// result caches and digests.
func TestHostPerfDeterminism(t *testing.T) {
	off := hostperfRun(t, false)
	on := hostperfRun(t, true)
	offJSON, err := json.Marshal(off)
	if err != nil {
		t.Fatal(err)
	}
	onJSON, err := json.Marshal(on)
	if err != nil {
		t.Fatal(err)
	}
	if string(offJSON) != string(onJSON) {
		t.Fatalf("results differ with profiling on:\noff: %s\non:  %s", offJSON, onJSON)
	}
	if strings.Contains(string(onJSON), "events_per_sec") {
		t.Fatal("HostPerf leaked into the serialized result")
	}
	if off.Cycles != on.Cycles || off.SimEvents != on.SimEvents {
		t.Fatalf("simulated quantities drifted: %d/%d cycles, %d/%d events",
			off.Cycles, on.Cycles, off.SimEvents, on.SimEvents)
	}
}

// TestHostPerfRepeatable asserts two profiled runs still simulate
// identically — sampling keys off the deterministic event counter, never
// the host clock.
func TestHostPerfRepeatable(t *testing.T) {
	a := hostperfRun(t, true)
	b := hostperfRun(t, true)
	if a.Cycles != b.Cycles || a.SimEvents != b.SimEvents {
		t.Fatalf("profiled runs diverged: %d/%d cycles, %d/%d events",
			a.Cycles, b.Cycles, a.SimEvents, b.SimEvents)
	}
	if a.HostPerf.Events != b.HostPerf.Events {
		t.Fatalf("profiled event counts diverged: %d vs %d", a.HostPerf.Events, b.HostPerf.Events)
	}
}
