package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"dynamo/internal/sim"
	"dynamo/internal/stats"
)

// histBuckets is the bucket count of a log2 histogram: bucket i counts
// values v with bits.Len64(v) == i, i.e. [2^(i-1), 2^i), with 0 in bucket 0.
// 64 buckets cover every uint64 latency.
const histBuckets = 65

// Hist is a log2-bucketed latency histogram.
type Hist struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// Observe adds one sample.
func (h *Hist) Observe(v uint64) {
	h.buckets[bucketOf(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

func bucketOf(v uint64) int { return bits.Len64(v) }

// Count returns the number of samples.
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Hist) Sum() uint64 { return h.sum }

// Min returns the smallest sample (0 if empty).
func (h *Hist) Min() uint64 { return h.min }

// Max returns the largest sample (0 if empty).
func (h *Hist) Max() uint64 { return h.max }

// Mean returns the arithmetic mean (0 if empty).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the containing log2 bucket, clamped to the observed min/max. It
// returns 0 for an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var seen float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - seen) / float64(c)
			v := lo + frac*(hi-lo)
			return math.Min(math.Max(v, float64(h.min)), float64(h.max))
		}
		seen += float64(c)
	}
	return float64(h.max)
}

// bucketBounds returns the value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return math.Exp2(float64(i - 1)), math.Exp2(float64(i))
}

// Buckets returns a copy of the raw bucket counts.
func (h *Hist) Buckets() [histBuckets]uint64 { return h.buckets }

// Snapshot returns a value copy of the histogram, frozen at the current
// counts. Interval telemetry snapshots class histograms to diff against the
// next sample.
func (h *Hist) Snapshot() Hist { return *h }

// Merge folds another histogram into h, as if every sample of o had also
// been observed by h. Merging interval snapshots reconstructs the full-run
// histogram.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.count += o.count
	h.sum += o.sum
}

// phaseRec marks entry into a phase; its duration runs to the next record
// (or the transaction end).
type phaseRec struct {
	ph    Phase
	start sim.Tick
}

// liveTxn is the collector's view of one in-flight transaction. Phase
// durations are attributed only at end time, so they always land under the
// transaction's final class (AMOs are reclassified once placement is
// decided, which can happen after the first phase transition).
type liveTxn struct {
	class  Class
	begin  sim.Tick
	phases []phaseRec
}

// Histograms accumulates latency distributions from bus events: one
// end-to-end histogram per transaction class, one histogram per
// (class, phase) pair, one per span name, plus free-form counters.
type Histograms struct {
	classes [numClasses]Hist
	phases  [numClasses][numPhases]Hist
	spans   map[string]*Hist
	counter map[string]uint64
	live    map[TxnID]*liveTxn
}

func newHistograms() *Histograms {
	return &Histograms{
		spans:   make(map[string]*Hist),
		counter: make(map[string]uint64),
		live:    make(map[TxnID]*liveTxn),
	}
}

func (h *Histograms) begin(id TxnID, now sim.Tick, class Class) {
	h.live[id] = &liveTxn{class: class, begin: now, phases: []phaseRec{{PhaseIssue, now}}}
}

func (h *Histograms) reclass(id TxnID, class Class) {
	if t, ok := h.live[id]; ok {
		t.class = class
	}
}

func (h *Histograms) phase(id TxnID, now sim.Tick, ph Phase) {
	t, ok := h.live[id]
	if !ok {
		return // transaction already ended (early-acked AtomicStore)
	}
	t.phases = append(t.phases, phaseRec{ph, now})
}

func (h *Histograms) end(id TxnID, now sim.Tick) {
	t, ok := h.live[id]
	if !ok {
		return
	}
	delete(h.live, id)
	for i, p := range t.phases {
		until := now
		if i+1 < len(t.phases) {
			until = t.phases[i+1].start
		}
		h.phases[t.class][p.ph].Observe(uint64(until - p.start))
	}
	h.classes[t.class].Observe(uint64(now - t.begin))
}

func (h *Histograms) span(name string, dur sim.Tick) {
	s, ok := h.spans[name]
	if !ok {
		s = &Hist{}
		h.spans[name] = s
	}
	s.Observe(uint64(dur))
}

func (h *Histograms) count(name string, n uint64) { h.counter[name] += n }

// Class returns the end-to-end latency histogram of a transaction class.
func (h *Histograms) Class(c Class) *Hist { return &h.classes[c] }

// ClassPhase returns the duration histogram of one phase of one class.
func (h *Histograms) ClassPhase(c Class, p Phase) *Hist { return &h.phases[c][p] }

// Counters returns every free-form counter sorted by name.
func (h *Histograms) Counters() []stats.Counter {
	names := make([]string, 0, len(h.counter))
	for n := range h.counter {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]stats.Counter, 0, len(names))
	for _, n := range names {
		out = append(out, stats.Counter{Name: n, Value: h.counter[n]})
	}
	return out
}

// HistSummary is the JSON-friendly digest of one histogram.
type HistSummary struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Min   uint64  `json:"min"`
	Max   uint64  `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func summarize(name string, h *Hist) HistSummary {
	return HistSummary{
		Name:  name,
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Report is the deterministic, machine-readable digest of a run's
// observability data: every field is an ordered slice, so JSON encoding is
// byte-stable across runs.
type Report struct {
	// Classes holds one summary per non-empty transaction class.
	Classes []HistSummary `json:"classes"`
	// Phases holds one summary per non-empty (class, phase) pair, named
	// "class/phase".
	Phases []HistSummary `json:"phases"`
	// Spans holds one summary per span name (link transfers, channel
	// bursts, stalls), sorted by name.
	Spans []HistSummary `json:"spans"`
	// Counters holds the free-form counters sorted by name.
	Counters []stats.Counter `json:"counters"`
}

// Report digests the collected histograms.
func (h *Histograms) Report() *Report {
	r := &Report{}
	for c := Class(0); c < numClasses; c++ {
		if h.classes[c].Count() == 0 {
			continue
		}
		r.Classes = append(r.Classes, summarize(c.String(), &h.classes[c]))
		for p := Phase(0); p < numPhases; p++ {
			if h.phases[c][p].Count() == 0 {
				continue
			}
			r.Phases = append(r.Phases, summarize(c.String()+"/"+p.String(), &h.phases[c][p]))
		}
	}
	names := make([]string, 0, len(h.spans))
	for n := range h.spans {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.Spans = append(r.Spans, summarize(n, h.spans[n]))
	}
	cnames := make([]string, 0, len(h.counter))
	for n := range h.counter {
		cnames = append(cnames, n)
	}
	sort.Strings(cnames)
	for _, n := range cnames {
		r.Counters = append(r.Counters, stats.Counter{Name: n, Value: h.counter[n]})
	}
	return r
}

// summaryRows renders summaries into a table.
func summaryRows(t *stats.Table, sums []HistSummary) {
	for _, s := range sums {
		t.AddRow(s.Name, fmt.Sprint(s.Count), stats.F(s.Mean),
			stats.F(s.P50), stats.F(s.P95), stats.F(s.P99),
			fmt.Sprint(s.Min), fmt.Sprint(s.Max))
	}
}

// Table renders the per-class and per-phase latency histograms as an
// aligned text table (latencies in cycles).
func (r *Report) Table() *stats.Table {
	t := &stats.Table{Header: []string{"class", "count", "mean", "p50", "p95", "p99", "min", "max"}}
	summaryRows(t, r.Classes)
	summaryRows(t, r.Phases)
	return t
}

// SpanTable renders the component-occupancy span histograms.
func (r *Report) SpanTable() *stats.Table {
	t := &stats.Table{Header: []string{"span", "count", "mean", "p50", "p95", "p99", "min", "max"}}
	summaryRows(t, r.Spans)
	return t
}

// CounterTable renders the free-form counters.
func (r *Report) CounterTable() *stats.Table {
	t := &stats.Table{Header: []string{"counter", "value"}}
	for _, c := range r.Counters {
		t.AddRow(c.Name, fmt.Sprint(c.Value))
	}
	return t
}
