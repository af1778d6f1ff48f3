package measure

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
)

// Metric is one metric of the spec. Bound, for end-to-end metrics, is the
// share of the baseline median by which the metric may worsen.
type Metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Workload is one workload of the spec.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// ReadSpec reads and validates a BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// Validate checks names, units, directions and bounds.
func (s *Spec) Validate() error {
	seen := map[string]bool{}
	use := func(name string) error {
		if !ValidName(name) {
			return fmt.Errorf("invalid name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
	}
	for i, group := range [][]Metric{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			if err := use(m.Name); err != nil {
				return err
			}
			if !unitPattern.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better must be lower or higher", m.Name)
			}
			if i == 0 && (m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25) {
				return fmt.Errorf("metric %s: end-to-end bound must be in [0, 0.25]", m.Name)
			}
		}
	}
	if len(s.EndToEnd) == 0 || !seen["setup_s"] {
		return fmt.Errorf("end_to_end must include setup_s")
	}
	return nil
}

// SetupFloor is the absolute slack setup_s always gets, so a set-up of a
// few milliseconds is not judged by its relative jitter.
const SetupFloor = 0.05

// Exact reports whether a metric is a count that must repeat exactly for
// the same workload and seed: a simulated statistic (model.*), a kernel
// event count (*.events), or a count of jobs the seed alone decides.
func Exact(name string) bool {
	return strings.HasPrefix(name, "model.") || strings.HasSuffix(name, ".events") || exactCounts[name]
}

var exactCounts = map[string]bool{
	"runner.requests":         true,
	"runner.jobs":             true,
	"runner.dedupe_hits":      true,
	"runner.disk_hits":        true,
	"runner.simulated":        true,
	"checkpoint.count":        true,
	"checkpoint.replay_share": true,
}

// Verdict is the outcome for one metric on one workload.
type Verdict string

const (
	OK         Verdict = "ok"
	Better     Verdict = "better"
	Worse      Verdict = "worse"
	Unresolved Verdict = "unresolved"
	Differs    Verdict = "differs"
	Missing    Verdict = "missing"
)

// MetricCheck compares one metric between two sets on one workload.
type MetricCheck struct {
	Metric string
	// MedianA/MedianB are the set medians; Change is B against A as a
	// share of A, signed so that positive is worse.
	MedianA, MedianB float64
	Change           float64
	// SpreadA/SpreadB are each set's interquartile spread over its median.
	SpreadA, SpreadB float64
	Verdict          Verdict
}

// WorkloadCheck is one row of the report.
type WorkloadCheck struct {
	Workload string
	RunsA    int
	RunsB    int
	// Failures lists runs that were incorrect or had failed operations.
	Failures []string
	Metrics  []MetricCheck
}

// Ok reports whether the row passed: every run correct, nothing worse,
// different or missing, and nothing unresolved.
func (w WorkloadCheck) Ok() bool {
	if len(w.Failures) > 0 {
		return false
	}
	for _, m := range w.Metrics {
		switch m.Verdict {
		case OK, Better:
		default:
			return false
		}
	}
	return true
}

// Check compares set B against baseline set A, one row per workload
// present in either. Host metrics of the spec's end-to-end list are
// judged against their bounds (setup_s with the SetupFloor slack); exact
// metrics must agree on every seed both sets ran. Untraced and traced
// records are compared separately: end-to-end metrics come from untraced
// runs, exact ones from whichever runs carry them.
func Check(spec *Spec, a, b []Record) []WorkloadCheck {
	names := map[string]bool{}
	for _, r := range append(append([]Record(nil), a...), b...) {
		names[r.Workload] = true
	}
	var rows []WorkloadCheck
	for _, w := range sortedKeys(names) {
		ra, rb := byWorkload(a, w), byWorkload(b, w)
		row := WorkloadCheck{Workload: w, RunsA: len(ra), RunsB: len(rb)}
		for _, set := range [][]Record{ra, rb} {
			for _, r := range set {
				if !r.Correct || r.FailedRatio() > 0 {
					row.Failures = append(row.Failures, fmt.Sprintf("seed %d: correct=%t failed_ratio=%g (%d/%d)",
						r.Seed, r.Correct, r.FailedRatio(), r.Failed, r.Attempted))
				}
			}
		}
		for _, m := range spec.EndToEnd {
			row.Metrics = append(row.Metrics, checkHost(m, untraced(ra), untraced(rb)))
		}
		for _, name := range exactNames(ra, rb) {
			row.Metrics = append(row.Metrics, checkExact(name, ra, rb))
		}
		rows = append(rows, row)
	}
	return rows
}

func checkHost(m Metric, a, b []Record) MetricCheck {
	c := MetricCheck{Metric: m.Name}
	va, vb := values(a, m.Name), values(b, m.Name)
	if len(va) == 0 || len(vb) == 0 {
		c.Verdict = Missing
		return c
	}
	c.MedianA, c.MedianB = Median(va), Median(vb)
	c.SpreadA, c.SpreadB = Spread(va), Spread(vb)
	if c.MedianA != 0 {
		c.Change = (c.MedianB - c.MedianA) / math.Abs(c.MedianA)
	}
	if m.Better == "higher" {
		c.Change = -c.Change
	}
	bound := *m.Bound
	allowed := bound
	if m.Name == "setup_s" && c.MedianA > 0 {
		allowed = math.Max(bound, SetupFloor/c.MedianA)
	}
	switch {
	case c.SpreadA > bound || c.SpreadB > bound:
		// Noise wider than the bound decides nothing — unless every run of
		// B beats every run of A.
		c.Verdict = Unresolved
		if separated(va, vb, m.Better) {
			c.Verdict = Better
		}
	case c.Change > allowed:
		c.Verdict = Worse
	case c.Change < -bound:
		c.Verdict = Better
	default:
		c.Verdict = OK
	}
	return c
}

// separated reports whether every value of b is better than every value
// of a.
func separated(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func checkExact(name string, a, b []Record) MetricCheck {
	c := MetricCheck{Metric: name, Verdict: OK}
	pa, pb := bySeed(a, name), bySeed(b, name)
	shared := 0
	for seed, x := range pa {
		y, ok := pb[seed]
		if !ok {
			continue
		}
		shared++
		if x != y {
			c.Verdict = Differs
			c.MedianA, c.MedianB = x, y
		}
	}
	if shared == 0 {
		c.Verdict = Missing
	}
	return c
}

// bySeed maps each seed to the metric's value; runs of one seed must
// already agree among themselves, so a disagreement inside a set is
// recorded as NaN, which never equals anything.
func bySeed(rs []Record, name string) map[int64]float64 {
	out := map[int64]float64{}
	for _, r := range rs {
		v, ok := r.Metrics[name]
		if !ok {
			continue
		}
		if prev, seen := out[r.Seed]; seen && prev != v.Value {
			out[r.Seed] = math.NaN()
			continue
		}
		out[r.Seed] = v.Value
	}
	return out
}

func exactNames(sets ...[]Record) []string {
	names := map[string]bool{}
	for _, set := range sets {
		for _, r := range set {
			for n := range r.Metrics {
				if Exact(n) {
					names[n] = true
				}
			}
		}
	}
	return sortedKeys(names)
}

func byWorkload(rs []Record, w string) []Record {
	var out []Record
	for _, r := range rs {
		if r.Workload == w {
			out = append(out, r)
		}
	}
	return out
}

func untraced(rs []Record) []Record {
	var out []Record
	for _, r := range rs {
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []Record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
