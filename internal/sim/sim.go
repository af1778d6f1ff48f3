// Package sim provides a deterministic discrete-event simulation kernel.
//
// All timing in the simulator is expressed in core clock cycles. Components
// schedule closures to run at future cycles on a single Engine; the engine
// executes them in (time, insertion-order) order, which makes every
// simulation run fully deterministic for a given seed and configuration.
package sim

import (
	"fmt"
	"sort"

	"dynamo/internal/perf"
)

// Tick is a point in simulated time, measured in clock cycles.
type Tick uint64

// event is a function scheduled to run at a fixed simulated time. The
// queue holds events by value, so scheduling allocates nothing; the hot
// paths pass functions bound once (a core's resume, the stages of request,
// transaction and snoop records), never a closure made per event.
type event struct {
	when Tick
	seq  uint64 // insertion order; breaks ties deterministically
	// kind attributes the event to the subsystem that scheduled it for
	// the host-performance self-profiler; it never affects ordering.
	kind perf.Kind
	fn   func()
}

// before reports whether a runs before b: earlier time first, then
// insertion order. Sequence numbers are unique, so the order is total.
func (a *event) before(b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events on (when, seq).
type eventQueue []event

// push adds ev, moving the hole up from the last slot to its place.
func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest event; the queue must be non-empty.
// The last event fills the hole left at the root, moving down to its
// place; the vacated slot is cleared so the queue keeps no closure alive.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now     Tick
	seq     uint64
	queue   eventQueue
	stopped bool
	// executed counts events run so far; used by watchdogs and stats.
	executed uint64
	// prof, when non-nil, observes every executed event (counts always,
	// wall-clock on sample strides). The disabled path is one nil check.
	prof *perf.Profiler
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Tick { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// AttachPerf points the engine at a host-performance self-profiler; every
// subsequently executed event is then attributed to its scheduling kind.
// A nil profiler (the default) costs one nil check per event.
func (e *Engine) AttachPerf(p *perf.Profiler) { e.prof = p }

// Schedule runs fn after delay cycles. A delay of zero runs fn later in the
// current cycle, after all previously scheduled work for this cycle.
func (e *Engine) Schedule(delay Tick, fn func()) {
	e.ScheduleKind(delay, perf.KindOther, fn)
}

// ScheduleKind is Schedule with a subsystem attribution kind for the
// self-profiler. The kind is purely observational: ordering, determinism
// and snapshots are unaffected.
func (e *Engine) ScheduleKind(delay Tick, kind perf.Kind, fn func()) {
	if fn == nil {
		panic("sim: Schedule called with nil fn")
	}
	e.queue.push(event{when: e.now + delay, seq: e.seq, kind: kind, fn: fn})
	e.seq++
}

// At runs fn at absolute time t, which must not be in the past.
func (e *Engine) At(t Tick, fn func()) {
	e.AtKind(t, perf.KindOther, fn)
}

// AtKind is At with a subsystem attribution kind for the self-profiler.
func (e *Engine) AtKind(t Tick, kind perf.Kind, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%d) is in the past (now=%d)", t, e.now))
	}
	e.ScheduleKind(t-e.now, kind, fn)
}

// Stop makes Run or RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called since the last Run/RunUntil
// began.
func (e *Engine) Stopped() bool { return e.stopped }

// Head returns the time of the next pending event. ok is false when the
// queue is empty.
func (e *Engine) Head() (t Tick, ok bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].when, true
}

// Step executes the single next event, advancing time to it. It reports
// whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.when
	e.executed++
	if e.prof == nil {
		ev.fn()
	} else {
		e.prof.Exec(ev.kind, len(e.queue), ev.fn)
	}
	return true
}

// Run executes events until the queue drains, Stop is called, or limit
// cycles of simulated time elapse (limit==0 means no time limit). It returns
// the number of events executed by this call.
func (e *Engine) Run(limit Tick) uint64 {
	e.stopped = false
	start := e.executed
	var deadline Tick
	if limit > 0 {
		deadline = e.now + limit
	}
	for !e.stopped && len(e.queue) > 0 {
		if limit > 0 && e.queue[0].when > deadline {
			break
		}
		e.Step()
	}
	return e.executed - start
}

// Snapshot is a serializable image of the engine's externally visible
// state. Event closures cannot be serialized, so a snapshot records only
// the clock, the insertion counter, the executed-event count and the
// (sorted) due times of pending events; checkpoint verification replays
// the deterministic event stream and compares snapshots bit-exactly.
type Snapshot struct {
	Now      Tick
	Seq      uint64
	Executed uint64
	Pending  []Tick
}

// Snapshot captures the engine state in canonical order.
func (e *Engine) Snapshot() Snapshot {
	pending := make([]Tick, len(e.queue))
	for i, ev := range e.queue {
		pending[i] = ev.when
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
	return Snapshot{Now: e.now, Seq: e.seq, Executed: e.executed, Pending: pending}
}

// RunUntil executes events while cond returns false, the queue is non-empty,
// Stop has not been called and the event budget (0 = unlimited) is not
// exhausted. It reports whether cond became true.
func (e *Engine) RunUntil(cond func() bool, maxEvents uint64) bool {
	e.stopped = false
	var n uint64
	for !cond() {
		if e.stopped {
			return false
		}
		if maxEvents > 0 && n >= maxEvents {
			return false
		}
		if !e.Step() {
			return false
		}
		n++
	}
	return true
}
