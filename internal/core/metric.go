package core

import (
	"dynamo/internal/cache"
	"dynamo/internal/chi"
	"dynamo/internal/memory"
	"dynamo/internal/obs"
)

// metricEntry holds the per-line statistics of the metric-based predictor:
// how often the line completed a near AMO at this core versus how often the
// directory invalidated it.
type metricEntry struct {
	nearCompleted uint32
	invalidations uint32
}

// Metric is the first DynAMO design (Section V-B): it predicts near when
// the ratio of completed near AMOs to received invalidations is high (low
// contention), far otherwise. Counters are halved when either saturates, a
// cheap aging scheme that keeps predictions responsive across program
// phases and avoids overflow.
type Metric struct {
	cfg    AMTConfig
	tables []*cache.SetAssoc[metricEntry] // one AMT per core
	obs    *obs.Bus
}

var _ chi.Policy = (*Metric)(nil)

// NewMetric builds the metric-based predictor for a system with the given
// core count.
func NewMetric(cores int, cfg AMTConfig) *Metric { return newMetric(cores, cfg, nil) }

func newMetric(cores int, cfg AMTConfig, arrays *cache.Arena) *Metric {
	m := &Metric{cfg: cfg}
	for i := 0; i < cores; i++ {
		m.tables = append(m.tables, cache.NewSetAssocIn[metricEntry](arrays, cfg.Entries/cfg.Ways, cfg.Ways))
	}
	return m
}

// Recycle hands the predictor's AMTs to arrays for a later predictor
// built from them; the predictor must not be used afterwards.
func (m *Metric) Recycle(arrays *cache.Arena) {
	for _, t := range m.tables {
		t.Recycle(arrays)
	}
	m.tables = nil
}

// AttachObs points the predictor at an observability bus, which then
// receives AMT telemetry counters (pred.amt.*, pred.near, pred.far,
// pred.metric.*).
func (m *Metric) AttachObs(b *obs.Bus) { m.obs = b }

// Name implements chi.Policy.
func (m *Metric) Name() string { return "dynamo-metric" }

// Decide implements chi.Policy. A predicted-near line behaves like All
// Near; a predicted-far line behaves like Unique Near (Section V-B).
func (m *Metric) Decide(core int, line memory.Line, st memory.State) chi.Placement {
	if st.Unique() {
		return chi.Near
	}
	t := m.tables[core]
	e, ok := t.Lookup(uint64(line))
	if !ok {
		// First touch: near AMOs perform well in most cases, so the first
		// prediction is always near, recorded optimistically.
		m.obs.Count("pred.amt.miss", 1)
		if _, _, evicted := t.Insert(uint64(line), metricEntry{nearCompleted: 1}); evicted {
			m.obs.Count("pred.amt.evict", 1)
		}
		m.obs.Count("pred.near", 1)
		return chi.Near
	}
	m.obs.Count("pred.amt.hit", 1)
	if e.nearCompleted >= e.invalidations {
		m.obs.Count("pred.near", 1)
		return chi.Near
	}
	m.obs.Count("pred.far", 1)
	return chi.Far
}

// bump increments one counter of an entry, halving both on saturation.
func (m *Metric) bump(core int, line memory.Line, inv bool) {
	e, ok := m.tables[core].Peek(uint64(line))
	if !ok {
		return
	}
	if inv {
		m.obs.Count("pred.metric.invalidation", 1)
		e.invalidations++
	} else {
		m.obs.Count("pred.metric.near-complete", 1)
		e.nearCompleted++
	}
	if e.invalidations >= uint32(m.cfg.CounterMax) || e.nearCompleted >= uint32(m.cfg.CounterMax) {
		e.invalidations >>= 1
		e.nearCompleted >>= 1
	}
}

// Age halves every counter of every core's table — the paper's periodic
// right-shift that keeps predictions responsive across program phases.
// The machine invokes it on a fixed cycle period.
func (m *Metric) Age() {
	for _, t := range m.tables {
		t.Range(func(_ uint64, e *metricEntry) bool {
			e.nearCompleted >>= 1
			e.invalidations >>= 1
			return true
		})
	}
}

// OnNearComplete implements chi.Policy.
func (m *Metric) OnNearComplete(core int, line memory.Line) { m.bump(core, line, false) }

// OnInvalidate implements chi.Policy.
func (m *Metric) OnInvalidate(core int, line memory.Line) { m.bump(core, line, true) }

// The metric design ignores fill, hit and eviction events.

func (m *Metric) OnFill(int, memory.Line, bool) {}
func (m *Metric) OnHit(int, memory.Line)        {}
func (m *Metric) OnEvict(int, memory.Line)      {}

// Entry exposes the counters of a line's AMT entry for tests.
func (m *Metric) Entry(core int, line memory.Line) (near, inv uint32, ok bool) {
	e, found := m.tables[core].Peek(uint64(line))
	if !found {
		return 0, 0, false
	}
	return e.nearCompleted, e.invalidations, true
}
