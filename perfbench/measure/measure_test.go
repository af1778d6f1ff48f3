package measure

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	// p90 of 1..100 is 90, with 91..100 beyond it.
	v, err := Tail(seq(100), 0.9)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 100 samples = %v, %v; want 90", v, err)
	}
	if _, err := Tail(seq(99), 0.9); !errors.Is(err, ErrTooFewSamples) {
		t.Fatalf("p90 of 99 samples: err = %v, want ErrTooFewSamples", err)
	}
	if _, err := Tail(seq(199), 0.95); !errors.Is(err, ErrTooFewSamples) {
		t.Fatalf("p95 of 199 samples: err = %v, want ErrTooFewSamples", err)
	}
	if v, err := Tail(seq(200), 0.95); err != nil || v != 190 {
		t.Fatalf("p95 of 200 samples = %v, %v; want 190", v, err)
	}
	if _, err := Tail(nil, 0.5); !errors.Is(err, ErrTooFewSamples) {
		t.Fatalf("p50 of no samples: err = %v", err)
	}
	if _, err := Tail(seq(100), 1); err == nil {
		t.Fatal("p100 accepted")
	}
}

func TestTailIgnoresInputOrder(t *testing.T) {
	xs := seq(120)
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
	if v, _ := Tail(xs, 0.9); v != 108 {
		t.Fatalf("p90 = %v, want 108", v)
	}
	if xs[0] != 120 {
		t.Fatal("Tail reordered its input")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1}, 2.5},
		{[]float64{5, 1, 3}, 3},
	} {
		if got := Median(c.xs); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(4), 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7, 1, 3}, 1, 7},
		{seq(11), 3, 9},
	} {
		q1, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := Spread(seq(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("Spread(1..10) = %v, want 1", got)
	}
	if got := Spread([]float64{2, 2, 2}); got != 0 {
		t.Errorf("Spread of equal values = %v", got)
	}
	if got := Spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("Spread of zeros = %v", got)
	}
	if got := Spread([]float64{-1, 0, 1}); !math.IsInf(got, 1) {
		t.Errorf("Spread around a zero median = %v, want +Inf", got)
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"setup_s", "op_p90_ms", "chi.rn.share", "model.noc_flits", "9lives", "a-b"} {
		if !ValidName(s) {
			t.Errorf("ValidName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "a b", "a/b", "é", "x\n", strings.Repeat("a", 65)} {
		if ValidName(s) {
			t.Errorf("ValidName(%q) = true", s)
		}
	}
	if !ValidName(strings.Repeat("a", 64)) {
		t.Error("a 64-letter name was rejected")
	}
}

func TestFailedRatio(t *testing.T) {
	for _, c := range []struct {
		attempted, failed int64
		want              float64
	}{
		{10, 0, 0},
		{10, 1, 0.1},
		{4, 4, 1},
		{0, 0, 1}, // nothing attempted counts as wholly failed
	} {
		r := Result{Attempted: c.attempted, Failed: c.failed}
		if got := r.FailedRatio(); got != c.want {
			t.Errorf("FailedRatio(%d/%d) = %v, want %v", c.failed, c.attempted, got, c.want)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.jsonl")
	want := []Record{
		{Workload: "suite-cold", Seed: 3, Result: Result{Correct: true, Attempted: 503, Metrics: map[string]Value{
			"setup_s":   {Value: 0.8127000000000001, Unit: "s"},
			"ops_per_s": {Value: 41.33542401706329, Unit: "1/s"},
		}}},
		{Workload: "resume", Seed: 4, Trace: true, Result: Result{Correct: false, Attempted: 7, Failed: 2, Metrics: map[string]Value{
			"model.cycles": {Value: 26755034, Unit: "count"},
		}}},
	}
	for _, r := range want {
		if err := AppendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestResultJSONKeys(t *testing.T) {
	// The last line a run prints has exactly these keys.
	r := Result{Correct: true, Attempted: 1, Metrics: map[string]Value{"x": {Value: 1, Unit: "s"}}}
	var keys []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(r)) {
		keys = append(keys, f.Tag.Get("json"))
	}
	if want := []string{"correct", "attempted", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
}
