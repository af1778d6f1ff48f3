// Package telemetry is the sweep control plane's observability layer: a
// lock-cheap metrics registry rendered in Prometheus text format, a
// structured per-job tracer journaled as append-only JSONL and exportable
// to the Chrome trace-event format, and an HTTP server exposing both as
// /metrics, /progress and /jobs while a sweep runs.
//
// One block of atomic counters (Counts) is always on: the runner, the
// sweep service and its lease table bump it, and Runner.Stats, /progress
// and /metrics read it. Like the probe bus (package obs) and the host
// self-profiler (package perf), everything else is designed to cost
// nothing when off: the runner holds a plain *Sweep (nil by default),
// every method is safe on a nil receiver, and the disabled job path
// allocates zero bytes (asserted in tests). Telemetry only observes the sweep — it never touches simulated
// state, so results, cache digests and experiment tables are
// byte-identical with it on or off.
package telemetry

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds named series and renders them in Prometheus text
// exposition format. A series is a Func, whose value renders at scrape
// time from counts kept outside the registry, or a Histogram updated with
// pure atomics. Series are registered once (typically at construction,
// single-threaded); registration and scraping take a mutex, updates never
// do.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family groups the series sharing one metric name under a single
// HELP/TYPE header.
type family struct {
	name, typ, help string
	series          []series
}

// series is one labeled series inside a family.
type series interface {
	write(w *bufio.Writer, name string)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register adds a series to its family, creating the family on first use.
// Registering one name under two types is a programming error and panics.
func (r *Registry) register(name, typ, help string, s series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, typ: typ, help: help}
		r.fams[name] = f
	} else if f.typ != typ {
		panic("telemetry: metric " + name + " registered as both " + f.typ + " and " + typ)
	}
	f.series = append(f.series, s)
}

// Func registers a series of type typ ("counter" or "gauge") whose value
// f renders at scrape time: a count kept outside the registry, or a rate
// derived from counts. labels is a literal Prometheus label body such as
// `state="done"` ("" for none).
func (r *Registry) Func(name, typ, labels, help string, f func() string) {
	r.register(name, typ, help, funcSeries{lbl: labels, f: f})
}

// Histogram registers a cumulative histogram over the given upper bounds
// (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(h.bounds)+1)
	r.register(name, "histogram", help, h)
	return h
}

// WritePrometheus renders every family in text exposition format, sorted
// by name so the output is deterministic for a given counter state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		bw.WriteString("# HELP " + f.name + " " + f.help + "\n")
		bw.WriteString("# TYPE " + f.name + " " + f.typ + "\n")
		for _, s := range f.series {
			s.write(bw, f.name)
		}
	}
	return bw.Flush()
}

// writeSample renders one `name{labels} value` line.
func writeSample(w *bufio.Writer, name, labels, value string) {
	w.WriteString(name)
	if labels != "" {
		w.WriteString("{" + labels + "}")
	}
	w.WriteString(" " + value + "\n")
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// FloatCounter is a monotonically increasing float64, updated with a CAS
// loop so concurrent Adds never lose increments: a histogram's sum.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates v.
func (c *FloatCounter) Add(v float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the accumulated total.
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// funcSeries is a series rendered by a function at scrape time.
type funcSeries struct {
	lbl string
	f   func() string
}

func (s funcSeries) write(w *bufio.Writer, name string) {
	writeSample(w, name, s.lbl, s.f())
}

// Histogram is a cumulative histogram: per-bucket counts plus sum and
// count, rendered as name_bucket{le=...}/name_sum/name_count.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    FloatCounter
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

func (h *Histogram) write(w *bufio.Writer, name string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		writeSample(w, name+"_bucket", `le="`+formatFloat(b)+`"`, strconv.FormatUint(cum, 10))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSample(w, name+"_bucket", `le="+Inf"`, strconv.FormatUint(cum, 10))
	writeSample(w, name+"_sum", "", formatFloat(h.sum.Value()))
	writeSample(w, name+"_count", "", strconv.FormatUint(h.count.Load(), 10))
}
