// Package sim provides a deterministic discrete-event simulation kernel.
//
// All timing in the simulator is expressed in core clock cycles. Components
// schedule closures to run at future cycles on a single Engine; the engine
// executes them in (time, insertion-order) order, which makes every
// simulation run fully deterministic for a given seed and configuration.
package sim

import (
	"fmt"
	"math/bits"
	"sort"

	"dynamo/internal/perf"
)

// Tick is a point in simulated time, measured in clock cycles.
type Tick uint64

// wheelSpan is the number of one-tick buckets in the engine's timing
// wheel. Nearly every event is scheduled fewer than wheelSpan cycles ahead
// (99.56% of a quick pass's 13.9M events), so it is pushed and popped in
// constant time; the rest wait in the overflow heap.
const wheelSpan = 256

// none ends a slot chain: a wheel bucket's FIFO or the free-slot stack.
const none = -1

// order is an event's place in the run order: earlier time first, then
// insertion order. Sequence numbers are unique, so the order is total.
type order struct {
	when Tick
	seq  uint64 // insertion order; breaks ties deterministically
}

func (a order) before(b order) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// slot is the pointer-free record of one pending event; the event's
// function sits at the same index of Engine.fns. next links the slot into
// its wheel bucket's FIFO while the event waits there, and into the
// free-slot stack once the slot is free.
type slot struct {
	order
	next int32
	// kind attributes the event to the subsystem that scheduled it for
	// the host-performance self-profiler; it never affects ordering.
	kind perf.Kind
}

// farKey is an overflow event's entry in the overflow heap. It holds no
// pointer, so moving keys during a sift costs no write barrier while the
// collector marks.
type farKey struct {
	order
	slot int32
}

// farHeap is a binary min-heap of overflow events in run order.
type farHeap []farKey

// push adds k, moving the hole up from the last slot to its place.
func (q *farHeap) push(k farKey) {
	*q = append(*q, k)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.before(h[p].order) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
}

// pop removes the earliest key; the heap must be non-empty. The last key
// fills the hole left at the root, moving down to its place.
func (q *farHeap) pop() {
	h := *q
	n := len(h) - 1
	last := h[n]
	*q = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c].order) {
			c = r
		}
		if !h[c].before(last.order) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
//
// A pending event lives in a slot: its function in fns, the rest in the
// pointer-free slots table. An event due fewer than wheelSpan cycles ahead
// waits in the timing wheel, a FIFO per tick; any other waits in the
// overflow heap. Every wheel event lies in [now, now+wheelSpan), so bucket
// when%wheelSpan holds one tick's events in insertion order, and Step runs
// the earlier of the wheel's first event and the heap's top by (when, seq).
// Scheduling and running an event write one pointer each, to store and to
// clear its function, and the tables only grow, so scheduling allocates
// nothing; the hot paths pass functions bound once (a core's resume, the
// stages of request, transaction and snoop records), never a closure made
// per event.
type Engine struct {
	now Tick
	seq uint64

	fns   []func()
	slots []slot
	free  int32 // top of the free-slot stack, or none
	// pending counts the events waiting in the wheel and the heap.
	pending int

	// head and tail are the first and last slots of each wheel bucket;
	// they are meaningful only while the bucket's occupancy bit is set.
	head, tail [wheelSpan]int32
	occupied   [wheelSpan / 64]uint64
	far        farHeap

	stopped bool
	// executed counts events run so far; used by watchdogs and stats.
	executed uint64
	// prof, when non-nil, observes every executed event (counts always,
	// wall-clock on sample strides). The disabled path is one nil check.
	prof *perf.Profiler
}

// initialSlots sizes a new engine's slot tables: a job keeps a few dozen
// events pending, so the tables rarely grow after the first.
const initialSlots = 128

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{
		fns:   make([]func(), 0, initialSlots),
		slots: make([]slot, 0, initialSlots),
		free:  none,
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Tick { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.pending }

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
	s := e.free
	if s == none {
		s = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
		e.fns = append(e.fns, nil)
	} else {
		e.free = e.slots[s].next
	}
	when := e.now + delay
	o := order{when: when, seq: e.seq}
	e.slots[s] = slot{order: o, next: none, kind: kind}
	e.fns[s] = fn
	if delay < wheelSpan {
		b := when % wheelSpan
		if bit := uint64(1) << (b % 64); e.occupied[b/64]&bit == 0 {
			e.occupied[b/64] |= bit
			e.head[b] = s
		} else {
			e.slots[e.tail[b]].next = s
		}
		e.tail[b] = s
	} else {
		e.far.push(farKey{order: o, slot: s})
	}
	e.seq++
	e.pending++
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

// wheelFirst returns the bucket holding the wheel's earliest event, or -1
// when the wheel is empty. Buckets are searched in rotation order from
// now's, which is time order because every wheel event lies in
// [now, now+wheelSpan).
func (e *Engine) wheelFirst() int {
	start := int(e.now % wheelSpan)
	w := start / 64
	if m := e.occupied[w] >> (start % 64); m != 0 {
		return start + bits.TrailingZeros64(m)
	}
	// The last probe returns to word w, whose bits below start remain.
	for i := 1; i <= len(e.occupied); i++ {
		w = (w + 1) % len(e.occupied)
		if m := e.occupied[w]; m != 0 {
			return w*64 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// first returns the slot of the earliest pending event, or none, and the
// wheel bucket holding it, or -1 when it is the overflow heap's top.
func (e *Engine) first() (s int32, bucket int) {
	b := e.wheelFirst()
	if len(e.far) > 0 && (b < 0 || e.far[0].before(e.slots[e.head[b]].order)) {
		return e.far[0].slot, -1
	}
	if b < 0 {
		return none, -1
	}
	return e.head[b], b
}

// Head returns the time of the next pending event. ok is false when the
// queue is empty.
func (e *Engine) Head() (t Tick, ok bool) {
	s, _ := e.first()
	if s == none {
		return 0, false
	}
	return e.slots[s].when, true
}

// Step executes the single next event, advancing time to it. It reports
// whether an event was executed.
func (e *Engine) Step() bool {
	s, b := e.first()
	if s == none {
		return false
	}
	r := &e.slots[s]
	if b < 0 {
		e.far.pop()
	} else if r.next == none {
		e.occupied[b/64] &^= 1 << (b % 64)
	} else {
		e.head[b] = r.next
	}
	fn := e.fns[s]
	e.fns[s] = nil
	e.now = r.when
	kind := r.kind
	r.next = e.free
	e.free = s
	e.pending--
	e.executed++
	if e.prof == nil {
		fn()
	} else {
		e.prof.Exec(kind, e.pending, fn)
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
	for !e.stopped && e.pending > 0 {
		if limit > 0 {
			if t, _ := e.Head(); t > deadline {
				break
			}
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
	pending := make([]Tick, 0, e.pending)
	for s, fn := range e.fns {
		if fn != nil {
			pending = append(pending, e.slots[s].when)
		}
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
