// Package profile builds run-level performance profiles on top of the obs
// probe bus: a bounded per-cacheline contention profiler (space-saving
// top-K) and an interval telemetry recorder that turns cumulative counters
// into a time-series of per-period records.
//
// Both collectors are fed from simulation events, which the engine runs
// single-threaded in deterministic order, so profiles and interval series
// are byte-identical across runs of the same seed and configuration.
package profile

import (
	"encoding/json"
	"fmt"
	"io"

	"dynamo/internal/memory"
	"dynamo/internal/obs"
	"dynamo/internal/sim"
	"dynamo/internal/stats"
)

// entry is the profiler's accumulator for one tracked cache line. AMOs is
// the space-saving key count; Err bounds its overestimation (an entry that
// inherited a slot starts from the evicted minimum).
type entry struct {
	line     memory.Addr
	amos     uint64
	err      uint64
	near     uint64
	far      uint64
	snoops   uint64
	sharers  uint64
	forwards uint64
	hnOps    uint64
	hnTicks  uint64
}

// reset rebases the entry on a new line after a space-saving replacement,
// keeping the inherited count and recording its error bound.
func (e *entry) reset(line memory.Addr, inherited uint64) {
	*e = entry{line: line, amos: inherited, err: inherited}
}

// Profiler is a bounded top-K contention profiler keyed by cache-line
// address. It implements obs.ContentionObserver. Admission follows the
// space-saving algorithm on AMO events: a line not yet tracked replaces the
// current minimum-count entry and inherits its count, so the K hottest
// lines are retained within a provable error bound regardless of workload
// footprint. Snoop and occupancy events only accumulate on already-tracked
// lines, keeping memory fixed at K entries.
type Profiler struct {
	k       int
	index   map[memory.Addr]int
	entries []entry
	// totalAMOs counts every observed AMO, tracked line or not, so reports
	// can show the table's coverage.
	totalAMOs uint64
}

// DefaultTopK is the table size used when none is given.
const DefaultTopK = 32

// NewProfiler builds a profiler tracking the k hottest lines (DefaultTopK
// if k <= 0).
func NewProfiler(k int) *Profiler {
	if k <= 0 {
		k = DefaultTopK
	}
	return &Profiler{k: k, index: make(map[memory.Addr]int, k)}
}

// track returns the entry index for line, admitting it via space-saving
// replacement if necessary. ok is false when the line is not tracked and
// admit is false.
func (p *Profiler) track(line memory.Addr, admit bool) (int, bool) {
	if i, ok := p.index[line]; ok {
		return i, true
	}
	if !admit {
		return 0, false
	}
	if len(p.entries) < p.k {
		p.entries = append(p.entries, entry{line: line})
		p.index[line] = len(p.entries) - 1
		return len(p.entries) - 1, true
	}
	// Replace the minimum-count entry. The scan is deterministic (first
	// minimum in slice order); no map iteration anywhere.
	min := 0
	for i := 1; i < len(p.entries); i++ {
		if p.entries[i].amos < p.entries[min].amos {
			min = i
		}
	}
	delete(p.index, p.entries[min].line)
	p.entries[min].reset(line, p.entries[min].amos)
	p.index[line] = min
	return min, true
}

// ObserveAMO implements obs.ContentionObserver.
func (p *Profiler) ObserveAMO(line memory.Addr, far bool) {
	p.totalAMOs++
	i, _ := p.track(line, true)
	e := &p.entries[i]
	e.amos++
	if far {
		e.far++
	} else {
		e.near++
	}
}

// ObserveSnoop implements obs.ContentionObserver.
func (p *Profiler) ObserveSnoop(line memory.Addr, sharers int) {
	if i, ok := p.track(line, false); ok {
		p.entries[i].snoops++
		p.entries[i].sharers += uint64(sharers)
	}
}

// ObserveSnoopForward implements obs.ContentionObserver.
func (p *Profiler) ObserveSnoopForward(line memory.Addr) {
	if i, ok := p.track(line, false); ok {
		p.entries[i].forwards++
	}
}

// ObserveHNOccupancy implements obs.ContentionObserver.
func (p *Profiler) ObserveHNOccupancy(line memory.Addr, dur sim.Tick) {
	if i, ok := p.track(line, false); ok {
		p.entries[i].hnOps++
		p.entries[i].hnTicks += uint64(dur)
	}
}

// HotLine is one row of the contention report.
type HotLine struct {
	// Line is the cache-line address.
	Line memory.Addr `json:"line"`
	// Site names the workload-level structure the line belongs to, with
	// Offset its byte offset inside that region. Empty when unattributed.
	Site   string `json:"site,omitempty"`
	Offset int64  `json:"offset,omitempty"`
	// AMOs is the space-saving count; Err bounds its overestimation
	// (true count is in [AMOs-Err, AMOs]).
	AMOs uint64 `json:"amos"`
	Err  uint64 `json:"err,omitempty"`
	// Near/Far split the AMOs observed since the line was admitted.
	Near uint64 `json:"near"`
	Far  uint64 `json:"far"`
	// Snoops counts snoop fan-outs; MeanSharers is targets per fan-out.
	Snoops      uint64  `json:"snoops"`
	MeanSharers float64 `json:"mean_sharers"`
	// Forwards counts dirty-data forwards out of snooped caches.
	Forwards uint64 `json:"forwards"`
	// MeanHNTicks is the mean HN ALU time (queue + occupancy) per far AMO.
	MeanHNTicks float64 `json:"mean_hn_ticks"`
}

// HotReport is the deterministic digest of the profiler: the tracked lines
// sorted by AMO count descending (line address ascending on ties).
type HotReport struct {
	// K is the table bound; TotalAMOs counts every AMO in the run, so
	// coverage = sum(Lines[].AMOs) / TotalAMOs (an overestimate by Err).
	K         int       `json:"k"`
	TotalAMOs uint64    `json:"total_amos"`
	Lines     []HotLine `json:"lines"`
}

// Report digests the table. resolve maps a line address to its workload
// site; pass (*obs.Bus).SiteOf, or nil to skip attribution.
func (p *Profiler) Report(resolve func(memory.Addr) (obs.Site, bool)) *HotReport {
	r := &HotReport{K: p.k, TotalAMOs: p.totalAMOs}
	for _, e := range p.entries {
		hl := HotLine{
			Line: e.line, AMOs: e.amos, Err: e.err,
			Near: e.near, Far: e.far,
			Snoops: e.snoops, Forwards: e.forwards,
		}
		if e.snoops > 0 {
			hl.MeanSharers = float64(e.sharers) / float64(e.snoops)
		}
		if e.hnOps > 0 {
			hl.MeanHNTicks = float64(e.hnTicks) / float64(e.hnOps)
		}
		if resolve != nil {
			if s, ok := resolve(e.line); ok {
				hl.Site = s.Name
				hl.Offset = int64(e.line - s.Base)
			}
		}
		r.Lines = append(r.Lines, hl)
	}
	sortHotLines(r.Lines)
	return r
}

// sortHotLines orders rows by AMO count descending, line ascending on ties
// (insertion sort: K is small and the order must be fully deterministic).
func sortHotLines(ls []HotLine) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0; j-- {
			a, b := &ls[j-1], &ls[j]
			if a.AMOs > b.AMOs || (a.AMOs == b.AMOs && a.Line <= b.Line) {
				break
			}
			ls[j-1], ls[j] = ls[j], ls[j-1]
		}
	}
}

// Table renders the report as an aligned text table.
func (r *HotReport) Table() *stats.Table {
	t := &stats.Table{Header: []string{
		"line", "site", "amos", "err", "near", "far", "snoops", "sharers", "fwd", "hn-ticks",
	}}
	for _, l := range r.Lines {
		site := l.Site
		if site != "" {
			site = fmt.Sprintf("%s+%d", l.Site, l.Offset)
		}
		t.AddRow(fmt.Sprintf("%#x", uint64(l.Line)), site,
			fmt.Sprint(l.AMOs), fmt.Sprint(l.Err),
			fmt.Sprint(l.Near), fmt.Sprint(l.Far),
			fmt.Sprint(l.Snoops), stats.F(l.MeanSharers),
			fmt.Sprint(l.Forwards), stats.F(l.MeanHNTicks))
	}
	return t
}

// WriteJSON writes the report as indented JSON.
func (r *HotReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
