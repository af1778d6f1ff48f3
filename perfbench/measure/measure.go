// Package measure is the pure half of the repository benchmark: the
// percentile rule, quartile spreads, run records and their JSON form,
// metric-name validation, the BENCHMARK.json spec, and the bound checks
// `perfbench check` applies between two sets of runs. It runs nothing, so
// its tests cover every edge without building a machine.
package measure

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
)

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// ValidName reports whether s is a usable metric or workload name: a
// letter or digit, then at most 63 letters, digits, '_', '.' or '-'.
func ValidName(s string) bool { return namePattern.MatchString(s) }

// MinBeyond is how many samples must lie above a reported tail
// percentile; with fewer, the percentile is one unlucky sample.
const MinBeyond = 10

// ErrTooFewSamples rejects a tail percentile that fewer than MinBeyond
// samples lie beyond.
var ErrTooFewSamples = errors.New("measure: too few samples beyond the percentile")

// Median returns the middle of xs (the mean of the middle two for an even
// count), as Python's statistics.median does. Empty input returns 0.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Tail returns the nearest-rank p-quantile of xs (0 < p < 1). It fails
// with ErrTooFewSamples unless at least MinBeyond samples rank above it,
// so p90 needs 100 samples and p95 needs 200.
func Tail(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("measure: percentile %g outside (0, 1)", p)
	}
	n := len(xs)
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 || n-1-k < MinBeyond {
		return 0, fmt.Errorf("%w: p%g of %d samples", ErrTooFewSamples, 100*p, n)
	}
	return sorted(xs)[k], nil
}

// Quartiles returns the first and third quartiles of xs by Python's
// statistics.quantiles(xs, n=4) default ("exclusive") method. It needs at
// least two samples; with fewer both quartiles are the lone value (or 0).
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		// Python clamps j into [1, n-1] and then extrapolates with the
		// unclamped remainder, so tiny sets match it exactly.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Spread is the interquartile distance of xs as a share of its median —
// the run-to-run noise a bound must exceed. A zero median gives 0 when
// every sample is equal and +Inf otherwise.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	med := Median(xs)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line a run prints last: whether its outputs were correct,
// how many operations it attempted and how many failed, and its metrics.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// FailedRatio is failed operations over attempted ones; a run that
// attempted nothing counts as wholly failed.
func (r Result) FailedRatio() float64 {
	if r.Attempted <= 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// Record is one run as kept in a set file: the result plus the workload,
// seed and mode that produced it.
type Record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result
}

// ReadRecords reads a set file: one JSON record per line.
func ReadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	dec := json.NewDecoder(f)
	for dec.More() {
		var r Record
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: record %d: %w", path, len(out)+1, err)
		}
		if r.Workload == "" || r.Attempted < 1 {
			return nil, fmt.Errorf("%s: record %d: missing workload or attempted < 1", path, len(out)+1)
		}
		out = append(out, r)
	}
	return out, nil
}

// AppendRecord appends one record to a set file as a JSON line.
func AppendRecord(path string, r Record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
