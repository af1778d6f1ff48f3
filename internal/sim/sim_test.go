package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 3) })
	e.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %d, want 20", e.Now())
	}
}

func TestTieBreakInsertionOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(7, func() { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-tick events executed out of insertion order at %d: %v", i, v)
		}
	}
}

func TestZeroDelayRunsSameCycle(t *testing.T) {
	e := NewEngine()
	var at Tick
	e.Schedule(3, func() {
		e.Schedule(0, func() { at = e.Now() })
	})
	e.Run(0)
	if at != 3 {
		t.Fatalf("zero-delay event ran at %d, want 3", at)
	}
}

func TestAt(t *testing.T) {
	e := NewEngine()
	var at Tick
	e.At(42, func() { at = e.Now() })
	e.Run(0)
	if at != 42 {
		t.Fatalf("At event ran at %d, want 42", at)
	}
}

func TestAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run(0)
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Schedule(nil) did not panic")
		}
	}()
	NewEngine().Schedule(0, nil)
}

func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Tick(i), func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	e.Run(0)
	if n != 3 {
		t.Fatalf("executed %d events after Stop, want 3", n)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending() = %d, want 7", e.Pending())
	}
}

func TestRunTimeLimit(t *testing.T) {
	e := NewEngine()
	var ran []Tick
	for i := 1; i <= 10; i++ {
		d := Tick(i * 10)
		e.Schedule(d, func() { ran = append(ran, d) })
	}
	e.Run(35) // events at 10,20,30 fit; 40 is past the deadline
	if len(ran) != 3 {
		t.Fatalf("ran %d events within limit, want 3 (%v)", len(ran), ran)
	}
	// Run again with no limit; remaining events execute.
	e.Run(0)
	if len(ran) != 10 {
		t.Fatalf("ran %d events total, want 10", len(ran))
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 100; i++ {
		e.Schedule(Tick(i), func() { n++ })
	}
	ok := e.RunUntil(func() bool { return n >= 10 }, 0)
	if !ok || n != 10 {
		t.Fatalf("RunUntil stopped at n=%d ok=%v, want 10/true", n, ok)
	}
	ok = e.RunUntil(func() bool { return n >= 1000 }, 0)
	if ok {
		t.Fatal("RunUntil reported success on an unreachable condition")
	}
	if n != 100 {
		t.Fatalf("n = %d after drain, want 100", n)
	}
}

func TestRunUntilEventBudget(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 100; i++ {
		e.Schedule(Tick(i), func() { n++ })
	}
	if e.RunUntil(func() bool { return false }, 5) {
		t.Fatal("RunUntil with false cond reported success")
	}
	if n != 5 {
		t.Fatalf("event budget executed %d events, want 5", n)
	}
}

func TestRecursiveScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 1000 {
			e.Schedule(1, step)
		}
	}
	e.Schedule(0, step)
	e.Run(0)
	if depth != 1000 {
		t.Fatalf("depth = %d, want 1000", depth)
	}
	if e.Now() != 999 {
		t.Fatalf("Now() = %d, want 999", e.Now())
	}
}

// Property: events always execute in non-decreasing time order regardless of
// the insertion order of delays.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var times []Tick
		for _, d := range delays {
			e.Schedule(Tick(d), func() { times = append(times, e.Now()) })
		}
		e.Run(0)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving random scheduling from within events still executes
// every event exactly once and never travels backwards in time.
func TestNestedSchedulingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		executed := 0
		scheduled := 0
		var spawn func(budget int)
		spawn = func(budget int) {
			executed++
			if budget <= 0 {
				return
			}
			kids := rng.Intn(3)
			for i := 0; i < kids; i++ {
				scheduled++
				b := budget - 1
				e.Schedule(Tick(rng.Intn(50)), func() { spawn(b) })
			}
		}
		for i := 0; i < 10; i++ {
			scheduled++
			e.Schedule(Tick(rng.Intn(50)), func() { spawn(6) })
		}
		last := Tick(0)
		for e.Step() {
			if e.Now() < last {
				return false
			}
			last = e.Now()
		}
		return executed == scheduled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Tick(i%64), func() {})
		if i%64 == 63 {
			e.Run(0)
		}
	}
	e.Run(0)
}

// BenchmarkEngineScheduleRunFar is BenchmarkEngineScheduleRun with every
// delay past the wheel's span, so each event goes through the overflow
// heap.
func BenchmarkEngineScheduleRunFar(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(wheelSpan+Tick(i%64), func() {})
		if i%64 == 63 {
			e.Run(0)
		}
	}
	e.Run(0)
}

// engineAPI is the part of the engine contract the differential test
// drives; *Engine and refEngine both implement it.
type engineAPI interface {
	Now() Tick
	Schedule(delay Tick, fn func())
	At(t Tick, fn func())
	Stop()
	Step() bool
	Run(limit Tick) uint64
	RunUntil(cond func() bool, maxEvents uint64) bool
	Snapshot() Snapshot
}

// refEngine is the reference model for the differential test: the
// engine's documented contract over an unordered slice, popping the
// least (when, seq) by a linear scan.
type refEngine struct {
	now      Tick
	seq      uint64
	executed uint64
	stopped  bool
	pending  []refEvent
}

type refEvent struct {
	when Tick
	seq  uint64
	fn   func()
}

func (r *refEngine) Now() Tick { return r.now }

func (r *refEngine) Schedule(delay Tick, fn func()) {
	r.pending = append(r.pending, refEvent{when: r.now + delay, seq: r.seq, fn: fn})
	r.seq++
}

func (r *refEngine) At(t Tick, fn func()) { r.Schedule(t-r.now, fn) }

func (r *refEngine) Stop() { r.stopped = true }

// head returns the index of the least pending (when, seq).
func (r *refEngine) head() int {
	best := 0
	for i, ev := range r.pending {
		b := r.pending[best]
		if ev.when < b.when || ev.when == b.when && ev.seq < b.seq {
			best = i
		}
	}
	return best
}

func (r *refEngine) Step() bool {
	if len(r.pending) == 0 {
		return false
	}
	i := r.head()
	ev := r.pending[i]
	r.pending = append(r.pending[:i], r.pending[i+1:]...)
	r.now = ev.when
	r.executed++
	ev.fn()
	return true
}

func (r *refEngine) Run(limit Tick) uint64 {
	r.stopped = false
	start := r.executed
	deadline := r.now + limit
	for !r.stopped && len(r.pending) > 0 {
		if limit > 0 && r.pending[r.head()].when > deadline {
			break
		}
		r.Step()
	}
	return r.executed - start
}

func (r *refEngine) RunUntil(cond func() bool, maxEvents uint64) bool {
	r.stopped = false
	for n := uint64(0); !cond(); n++ {
		if r.stopped || maxEvents > 0 && n >= maxEvents || !r.Step() {
			return false
		}
	}
	return true
}

func (r *refEngine) Snapshot() Snapshot {
	pending := make([]Tick, len(r.pending))
	for i, ev := range r.pending {
		pending[i] = ev.when
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
	return Snapshot{Now: r.now, Seq: r.seq, Executed: r.executed, Pending: pending}
}

// mix is splitmix64: a stateless per-event random stream, so an event's
// actions depend only on the seed and its id, never on which engine runs it.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// diffTrace is what one scripted run observes: every executed event's id,
// time and the engine snapshot it saw, and every outside call's result and
// the snapshot after it.
type diffTrace struct {
	ops   []string
	snaps []Snapshot
}

// farDelays cross the timing wheel's span: 255 is the last delay the
// wheel holds, 256 and beyond go to the overflow heap, some several spans
// out. Events scheduled on nearby ticks at 255, 256 and 257 often land on
// one tick from both sides, so the heap/wheel tie-break is exercised.
var farDelays = [...]Tick{255, 256, 257, 2*wheelSpan - 1, 2 * wheelSpan, 3*wheelSpan + 5, 7*wheelSpan + 3}

// scriptDelay picks a delay from r: usually 0-7, so equal-time ties are
// common, otherwise one of farDelays.
func scriptDelay(r uint64) Tick {
	if r%4 != 0 {
		return Tick(r / 4 % 8)
	}
	return farDelays[r/4%uint64(len(farDelays))]
}

// runScript drives eng through a random schedule fixed by seed. Events
// schedule children with Schedule and At, mostly at small delays and
// otherwise across the wheel span, and occasionally Stop the run; the
// script interleaves outside scheduling with Step, Run(limit) and RunUntil
// budgets.
func runScript(seed int64, eng engineAPI) diffTrace {
	var tr diffTrace
	ids := uint64(0)
	var event func(id uint64) func()
	event = func(id uint64) func() {
		return func() {
			if len(tr.ops) > 10_000 {
				// A script runs fewer than a thousand ops and events; a
				// broken queue that runs events again stops here instead
				// of spinning, and its trace no longer matches.
				eng.Stop()
				return
			}
			tr.ops = append(tr.ops, fmt.Sprintf("event %d at %d", id, eng.Now()))
			tr.snaps = append(tr.snaps, eng.Snapshot())
			r := mix(uint64(seed)<<20 ^ id)
			if r%23 == 0 {
				eng.Stop()
			}
			for kid := r % 3; kid > 0 && ids < 600; kid-- {
				r = mix(r)
				ids++
				if delay := scriptDelay(r >> 1); r&1 == 0 {
					eng.Schedule(delay, event(ids))
				} else {
					eng.At(eng.Now()+delay, event(ids))
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 200; i++ {
		var op string
		switch rng.Intn(5) {
		case 0, 1:
			ids++
			delay := scriptDelay(rng.Uint64())
			eng.Schedule(delay, event(ids))
			op = fmt.Sprintf("schedule %d after %d", ids, delay)
		case 2:
			op = fmt.Sprintf("step %v", eng.Step())
		case 3:
			limit := scriptDelay(rng.Uint64())
			op = fmt.Sprintf("run(%d) = %d", limit, eng.Run(limit))
		case 4:
			target := len(tr.ops) + rng.Intn(10)
			budget := uint64(rng.Intn(6))
			ok := eng.RunUntil(func() bool { return len(tr.ops) >= target }, budget)
			op = fmt.Sprintf("run-until(%d, %d) = %v", target, budget, ok)
		}
		tr.ops = append(tr.ops, op)
		tr.snaps = append(tr.snaps, eng.Snapshot())
	}
	tr.ops = append(tr.ops, fmt.Sprintf("drain %d", eng.Run(0)))
	tr.snaps = append(tr.snaps, eng.Snapshot())
	return tr
}

// Property: the engine executes exactly the events a naive reference
// queue does, in the same order, and shows the same Snapshot at every
// event and after every outside call.
func TestEventQueueMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		got := runScript(seed, NewEngine())
		want := runScript(seed, &refEngine{})
		for i := range min(len(got.ops), len(want.ops)) {
			if got.ops[i] != want.ops[i] || !reflect.DeepEqual(got.snaps[i], want.snaps[i]) {
				t.Logf("seed %d step %d: engine %q %+v, reference %q %+v",
					seed, i, got.ops[i], got.snaps[i], want.ops[i], want.snaps[i])
				return false
			}
		}
		return len(got.ops) == len(want.ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Steady-state scheduling allocates nothing beyond the caller's closure:
// freed slots are reused, and neither the wheel nor the overflow heap
// grows once it holds the steady-state load. The far case keeps 64 events
// in the overflow heap.
func TestScheduleStepAllocatesNothing(t *testing.T) {
	for _, delay := range []Tick{64, 3 * wheelSpan} {
		e := NewEngine()
		fn := func() {}
		for i := 0; i < 64; i++ {
			e.Schedule(delay-64+Tick(i), fn)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			e.Schedule(delay, fn)
			e.Step()
		})
		if allocs != 0 {
			t.Fatalf("Schedule(%d)+Step allocated %v times per call, want 0", delay, allocs)
		}
	}
}
