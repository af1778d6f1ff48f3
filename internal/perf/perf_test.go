package perf

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestNilProfilerIsFree asserts the disabled path's contract: a nil
// profiler's Exec adds zero allocations (and the other methods are
// nil-safe no-ops).
func TestNilProfilerIsFree(t *testing.T) {
	var p *Profiler
	fn := func() {}
	if allocs := testing.AllocsPerRun(1000, func() {
		p.Exec(KindCPU, 3, fn)
	}); allocs != 0 {
		t.Fatalf("nil profiler Exec allocates %v per run, want 0", allocs)
	}
	p.Start()
	if got := p.Events(); got != 0 {
		t.Fatalf("nil profiler Events() = %d, want 0", got)
	}
	if r := p.Report(); r != nil {
		t.Fatalf("nil profiler Report() = %+v, want nil", r)
	}
	if s := (*Report)(nil).Summary(); s != "" {
		t.Fatalf("nil report Summary() = %q, want empty", s)
	}
}

// TestEnabledProfilerExecIsAllocFree asserts the hot path allocates
// nothing either: all state is fixed-size arrays updated in place.
func TestEnabledProfilerExecIsAllocFree(t *testing.T) {
	p := New(4)
	p.Start()
	fn := func() {}
	if allocs := testing.AllocsPerRun(1000, func() {
		p.Exec(KindRN, 5, fn)
	}); allocs != 0 {
		t.Fatalf("enabled profiler Exec allocates %v per run, want 0", allocs)
	}
}

func TestCountsAndSampling(t *testing.T) {
	p := New(8)
	p.Start()
	ran := 0
	fn := func() { ran++ }
	for i := 0; i < 100; i++ {
		p.Exec(KindCPU, i%10, fn)
	}
	for i := 0; i < 60; i++ {
		p.Exec(KindHN, 2, fn)
	}
	if ran != 160 {
		t.Fatalf("fn ran %d times, want 160", ran)
	}
	if p.Events() != 160 {
		t.Fatalf("Events() = %d, want 160", p.Events())
	}
	r := p.Report()
	if r.Events != 160 || r.SampleStride != 8 {
		t.Fatalf("Report events=%d stride=%d, want 160/8", r.Events, r.SampleStride)
	}
	byKind := map[string]KindStat{}
	var sampledTotal uint64
	for _, k := range r.Kinds {
		byKind[k.Kind] = k
		sampledTotal += k.SampledEvents
	}
	if byKind["cpu"].Events != 100 || byKind["hn"].Events != 60 {
		t.Fatalf("per-kind counts cpu=%d hn=%d, want 100/60", byKind["cpu"].Events, byKind["hn"].Events)
	}
	// Sampling fires on every stride-th event overall: 160/8 = 20 samples,
	// split across kinds by arrival order.
	if sampledTotal != 20 {
		t.Fatalf("sampled %d events total, want 160/8 = 20", sampledTotal)
	}
	if r.QueueDepthMax != 9 {
		t.Fatalf("QueueDepthMax = %d, want 9", r.QueueDepthMax)
	}
	if r.QueueDepthAvg < 0 || r.QueueDepthAvg > 9 {
		t.Fatalf("QueueDepthAvg = %v out of range", r.QueueDepthAvg)
	}
}

func TestReportSharesNormalize(t *testing.T) {
	p := New(1) // sample every event so every kind gets timing data
	p.Start()
	work := func() {
		s := 0
		for i := 0; i < 1000; i++ {
			s += i
		}
		_ = s
	}
	for i := 0; i < 50; i++ {
		p.Exec(KindCPU, 1, work)
		p.Exec(KindNoC, 1, work)
	}
	r := p.Report()
	var total float64
	for _, k := range r.Kinds {
		if k.SampledEvents != k.Events {
			t.Fatalf("stride 1 must sample every event: %s sampled %d of %d", k.Kind, k.SampledEvents, k.Events)
		}
		total += k.EstShare
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("EstShare sums to %v, want 1", total)
	}
	if r.EventsPerSec <= 0 || r.NSPerEvent <= 0 {
		t.Fatalf("derived rates not positive: %v events/s, %v ns/event", r.EventsPerSec, r.NSPerEvent)
	}
}

// TestSlowSampleDoesNotSwampItsKind: one slow sample (a GC pause or a
// preemption landing inside a timed event) must not make its kind look
// like the whole run. Two kinds of identical no-op events must share the
// attribution about evenly although one timed B event sleeps 5 ms; a
// sampled mean put B at about 0.99.
func TestSlowSampleDoesNotSwampItsKind(t *testing.T) {
	p := New(3) // odd, so both kinds, alternating, are sampled
	p.Start()
	noop := func() {}
	slow := func() { time.Sleep(5 * time.Millisecond) }
	for i := 0; i < 3000; i++ {
		p.Exec(KindCPU, 1, noop)
		fn := noop
		if i == 1502 {
			if (p.Events()+1)%p.stride != 0 {
				t.Fatal("the slow event would not be sampled")
			}
			fn = slow
		}
		p.Exec(KindNoC, 1, fn)
	}
	r := p.Report()
	for _, k := range r.Kinds {
		if k.Kind == "noc" {
			if k.SampledNS < uint64(5*time.Millisecond) {
				t.Fatalf("noc's samples sum to %v, want the slow event's 5ms in them", time.Duration(k.SampledNS))
			}
			if k.EstShare >= 0.75 {
				t.Errorf("noc EstShare = %.3f with one slow sample, want under 0.75", k.EstShare)
			}
		}
	}
}

// TestHistogramBuckets: a duration's bucket reads back exactly below
// 2*histSub ns and to within 1/(2*histSub) of it above, buckets are
// monotone in the duration, and the largest durations clamp into range.
func TestHistogramBuckets(t *testing.T) {
	prev := -1
	for ns := uint64(0); ns < 1<<20; ns += 1 + ns/64 {
		b := histBucket(ns)
		if b < prev || b >= histBuckets {
			t.Fatalf("histBucket(%d) = %d after %d, want monotone in [0, %d)", ns, b, prev, histBuckets)
		}
		prev = b
		got := histValue(b)
		if ns < 2*histSub && got != float64(ns) {
			t.Fatalf("histValue(histBucket(%d)) = %v, want exact", ns, got)
		}
		if rel := math.Abs(got-float64(ns)) / float64(ns); ns > 0 && rel > 1.0/(2*histSub) {
			t.Fatalf("histValue(histBucket(%d)) = %v, %.3f off", ns, got, rel)
		}
	}
	if b := histBucket(math.MaxUint64); b != histBuckets-1 {
		t.Fatalf("histBucket(max) = %d, want the last bucket %d", b, histBuckets-1)
	}
}

func TestDefaultStride(t *testing.T) {
	p := New(0)
	if p.stride != DefaultSampleStride {
		t.Fatalf("New(0) stride = %d, want %d", p.stride, DefaultSampleStride)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindOther: "other", KindCPU: "cpu", KindRN: "rn",
		KindHN: "hn", KindNoC: "noc", KindTick: "tick",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestSummaryAndJSON(t *testing.T) {
	p := New(2)
	p.Start()
	for i := 0; i < 10; i++ {
		p.Exec(KindTick, 0, func() {})
	}
	r := p.Report()
	s := r.Summary()
	for _, frag := range []string{"host perf", "events/s", "event queue", "host heap"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("Summary missing %q:\n%s", frag, s)
		}
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Events != r.Events || back.SampleStride != r.SampleStride {
		t.Fatalf("JSON round-trip mutated report: %+v vs %+v", back, r)
	}
}
