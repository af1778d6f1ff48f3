package core

import (
	"fmt"

	"dynamo/internal/cache"
	"dynamo/internal/chi"
	"dynamo/internal/memory"
	"dynamo/internal/obs"
)

// Fallback selects the static policy a DynAMO-Reuse predictor applies to
// lines whose reuse confidence has drained to zero (Section V-C).
type Fallback uint8

const (
	// FallbackUniqueNear is the aggressive variant (DynAMO-Reuse-UN):
	// zero-confidence lines execute far for I, SC and SD states.
	FallbackUniqueNear Fallback = iota
	// FallbackPresentNear is the conservative variant (DynAMO-Reuse-PN):
	// zero-confidence lines execute far only when invalid.
	FallbackPresentNear
)

// reuseEntry is one AMT entry of the reuse-pattern predictor.
type reuseEntry struct {
	confidence uint8
	reuseBit   bool
	// tracking is set while the line sits in the L1 after a near-AMO fill,
	// i.e. while the reuse bit is live.
	tracking bool
}

// reuseCore is the per-core predictor state: the AMT plus the global
// reuse heuristic that steers first decisions for unseen lines.
type reuseCore struct {
	amt *cache.SetAssoc[reuseEntry]
	// amoFills counts lines brought into the L1 by near AMOs; amoReused
	// counts how many of those were reused before leaving. Their ratio is
	// the global reuse view used for the first decision of new entries.
	amoFills  uint64
	amoReused uint64
}

// Reuse is the second DynAMO design (Section V-C): it learns, per cache
// line, whether lines fetched by near AMOs are reused in the L1D before
// being evicted or invalidated, and steers AMOs on no-reuse lines to the
// home node. The fallback policy distinguishes the UN and PN variants.
type Reuse struct {
	cfg      AMTConfig
	fallback Fallback
	cores    []reuseCore
	un       *Static
	pn       *Static
	obs      *obs.Bus
}

var _ chi.Policy = (*Reuse)(nil)

// NewReuse builds a reuse-pattern predictor for a system with the given
// core count.
func NewReuse(cores int, cfg AMTConfig, fb Fallback) *Reuse {
	return newReuse(cores, cfg, fb, nil)
}

func newReuse(cores int, cfg AMTConfig, fb Fallback, arrays *cache.Arena) *Reuse {
	r := &Reuse{cfg: cfg, fallback: fb, un: UniqueNear(), pn: PresentNear()}
	for i := 0; i < cores; i++ {
		r.cores = append(r.cores, reuseCore{
			amt: cache.NewSetAssocIn[reuseEntry](arrays, cfg.Entries/cfg.Ways, cfg.Ways),
		})
	}
	return r
}

// Recycle hands the predictor's AMTs to arrays for a later predictor
// built from them; the predictor must not be used afterwards.
func (r *Reuse) Recycle(arrays *cache.Arena) {
	for _, c := range r.cores {
		c.amt.Recycle(arrays)
	}
	r.cores = nil
}

// AttachObs points the predictor at an observability bus, which then
// receives AMT telemetry counters (pred.amt.*, pred.near*, pred.far).
func (r *Reuse) AttachObs(b *obs.Bus) { r.obs = b }

// Name implements chi.Policy.
func (r *Reuse) Name() string {
	if r.fallback == FallbackUniqueNear {
		return "dynamo-reuse-un"
	}
	return "dynamo-reuse-pn"
}

// fallbackDecide applies the configured zero-confidence static policy.
func (r *Reuse) fallbackDecide(line memory.Line, st memory.State) chi.Placement {
	if r.fallback == FallbackUniqueNear {
		return r.un.Decide(0, line, st)
	}
	return r.pn.Decide(0, line, st)
}

// Decide implements chi.Policy.
func (r *Reuse) Decide(core int, line memory.Line, st memory.State) chi.Placement {
	if st.Unique() {
		return chi.Near
	}
	c := &r.cores[core]
	if e, ok := c.amt.Lookup(uint64(line)); ok {
		r.obs.Count("pred.amt.hit", 1)
		if e.confidence > 0 {
			r.obs.Count("pred.near", 1)
			return chi.Near
		}
		return r.counted(r.fallbackDecide(line, st))
	}
	r.obs.Count("pred.amt.miss", 1)
	// New entry: the first decision comes from the global reuse ratio,
	// filtering streaming/thrashing patterns that would otherwise pollute
	// the L1. Near-decided entries start with a short probation instead
	// of a saturated counter so per-line no-reuse evidence flips them to
	// far within a few lifetimes; far-decided entries start drained and
	// stay far until the line shows up present (the PN fallback) or the
	// entry ages out of the AMT.
	if c.amoFills >= 16 && c.amoReused*2 < c.amoFills {
		r.insert(c, line, reuseEntry{confidence: 0})
		r.obs.Count("pred.far", 1)
		return chi.Far
	}
	r.insert(c, line, reuseEntry{confidence: r.probation()})
	r.obs.Count("pred.near", 1)
	return chi.Near
}

// counted tallies a fallback decision under the pred.near/pred.far counters.
func (r *Reuse) counted(p chi.Placement) chi.Placement {
	if p == chi.Near {
		r.obs.Count("pred.near", 1)
	} else {
		r.obs.Count("pred.far", 1)
	}
	return p
}

// insert allocates an AMT entry, counting capacity evictions.
func (r *Reuse) insert(c *reuseCore, line memory.Line, e reuseEntry) {
	if _, _, evicted := c.amt.Insert(uint64(line), e); evicted {
		r.obs.Count("pred.amt.evict", 1)
	}
}

// OnFill implements chi.Policy: a near-AMO fill arms the reuse bit.
func (r *Reuse) OnFill(core int, line memory.Line, byAMO bool) {
	if !byAMO {
		return
	}
	c := &r.cores[core]
	c.amoFills++
	if c.amoFills >= 1<<32 {
		// Age the global ratio so early phases don't dominate forever.
		c.amoFills >>= 1
		c.amoReused >>= 1
	}
	e, ok := c.amt.Peek(uint64(line))
	if !ok {
		// The line's entry may have been displaced from the AMT between
		// the decision and the fill; re-allocate so learning continues.
		r.insert(c, line, reuseEntry{confidence: r.probation(), tracking: true})
		return
	}
	e.reuseBit = false
	e.tracking = true
}

// OnHit implements chi.Policy: any other access touching the line while it
// lives in the L1 marks it as reused.
func (r *Reuse) OnHit(core int, line memory.Line) {
	c := &r.cores[core]
	e, ok := c.amt.Peek(uint64(line))
	if !ok || !e.tracking {
		return
	}
	if !e.reuseBit {
		e.reuseBit = true
		c.amoReused++
	}
}

// lineLeft updates confidence when a tracked line leaves the L1.
func (r *Reuse) lineLeft(core int, line memory.Line) {
	c := &r.cores[core]
	e, ok := c.amt.Peek(uint64(line))
	if !ok || !e.tracking {
		return
	}
	e.tracking = false
	if e.reuseBit {
		r.obs.Count("pred.near.reused", 1)
		if e.confidence == 0 {
			// Crossing zero confidence changes the line's placement; the
			// flip counter makes predictor churn visible in interval
			// telemetry (warm-up, phase changes).
			r.obs.Count("pred.flip", 1)
		}
		if int(e.confidence) < r.cfg.CounterMax {
			e.confidence++
		}
	} else {
		r.obs.Count("pred.near.no-reuse", 1)
		if e.confidence == 1 {
			r.obs.Count("pred.flip", 1)
		}
		if e.confidence > 0 {
			e.confidence--
		}
	}
}

// OnEvict implements chi.Policy.
func (r *Reuse) OnEvict(core int, line memory.Line) { r.lineLeft(core, line) }

// OnInvalidate implements chi.Policy.
func (r *Reuse) OnInvalidate(core int, line memory.Line) { r.lineLeft(core, line) }

// probation is the confidence granted to newly allocated near-predicted
// entries: enough lifetimes for genuine reuse to assert itself, few enough
// that streaming lines flip to far quickly.
func (r *Reuse) probation() uint8 {
	if r.cfg.CounterMax < 4 {
		return uint8(r.cfg.CounterMax)
	}
	return 4
}

// OnNearComplete implements chi.Policy. The reuse design learns from fills
// and hits rather than completions.
func (r *Reuse) OnNearComplete(int, memory.Line) {}

// Confidence exposes a line's confidence counter for tests.
func (r *Reuse) Confidence(core int, line memory.Line) (int, bool) {
	e, ok := r.cores[core].amt.Peek(uint64(line))
	if !ok {
		return 0, false
	}
	return int(e.confidence), true
}

// GlobalReuse exposes the per-core global reuse counters for tests.
func (r *Reuse) GlobalReuse(core int) (fills, reused uint64) {
	return r.cores[core].amoFills, r.cores[core].amoReused
}

// String describes the predictor configuration.
func (r *Reuse) String() string {
	return fmt.Sprintf("%s(entries=%d ways=%d counter=%d)", r.Name(), r.cfg.Entries, r.cfg.Ways, r.cfg.CounterMax)
}
