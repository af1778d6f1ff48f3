//go:build go1.23

// Package cpu provides the core timing model that drives the coherent
// memory system, and the Thread API that workload programs run against.
//
// The model captures the consistency effects Section III-B1 of the paper
// identifies as decisive for AMO placement: value-returning operations
// (loads, AtomicLoads, CAS) block the issuing thread until they complete,
// while stores and AtomicStores are posted through a finite store buffer
// and commit early. Everything else about the core is abstracted to an
// IPC-1 compute model — the studied effects live in the memory system.
//
// Each program runs as a coroutine (iter.Pull) and runs ahead of the core
// through the operations that return nothing. A Thread method that returns
// no value (Store, AMOStore, Compute, Pause, Fence) appends its operation
// to a queue of at most runAhead operations and returns at once; a
// value-returning one (Load, AMO, CAS) appends its operation and suspends
// the program until the core has executed the queue and hands back the
// result. The core executes queued operations one by one, each at the
// event where it would have executed had every call suspended the
// program, and resumes the coroutine only once the queue is drained, so
// simulated time is the same either way and only the host order of
// program code moves. The handoff is a direct coroutine switch between
// the engine's goroutine and the program's that bypasses the scheduler,
// so only one side runs at a time and simulations remain fully
// deterministic. (The go1.23 constraint admits iter.Pull while the
// module's go directive stays 1.22.)
//
// A spin-wait runs in the core, too. SpinUntil(a, want, pause) queues one
// operation, and the core executes it as the loop
//
//	for t.Load(a) != want {
//		t.Pause(pause)
//	}
//
// would: each poll is an ordinary Load and each pause an ordinary Pause,
// executed at the same event with the same instructions, Observe records,
// stall spans and request records. Only the host work differs: the core
// resumes the program once, with the poll that reads want, instead of
// once per poll. Like the queue, the spin state is left out of Snapshot,
// since replaying the event stream rebuilds it.
package cpu

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"

	"dynamo/internal/chi"
	"dynamo/internal/memory"
	"dynamo/internal/obs"
	"dynamo/internal/perf"
	"dynamo/internal/sim"
)

// Program is the code a simulated thread runs.
type Program func(t *Thread)

// opKind classifies thread operations.
type opKind uint8

const (
	opCompute opKind = iota
	opLoad
	opStore
	opAMO      // value-returning (AtomicLoad/CAS)
	opAMOStore // no-return (AtomicStore)
	opFence
	opPause
	opSpin // a SpinUntil: poll addr until it reads compare, pausing cycles between polls
)

type op struct {
	kind    opKind
	cycles  sim.Tick
	addr    memory.Addr
	amo     memory.AMOOp
	operand uint64
	compare uint64
}

// abortSignal unwinds a program's coroutine when its run is abandoned.
type abortSignal struct{}

// runAhead bounds the operations a program may issue before the core has
// executed them. Eight keeps 99% of an unbounded queue's saving in
// coroutine switches on the paper's workloads, whose spin and update loops
// post a few operations between value-returning ones.
const runAhead = 8

// Thread is the interface a Program uses to execute simulated operations.
// Thread methods may only be called from the goroutine the Program was
// invoked on. The program runs ahead of its core (see the package doc),
// which leaves every simulated cycle as it would be if each call waited
// for its operation, but a program can see two differences:
//
//   - Program Go code after a posted operation runs before that operation
//     executes in simulated time, though never past a value-returning
//     operation. Programs that share Go state with each other or with the
//     engine's side must therefore communicate through Thread operations.
//   - A program's panic can surface at an earlier simulated cycle, and the
//     operations it queued before panicking never execute.
//
// SpinUntil is the one call that stands for many operations: the core
// runs every poll and pause of the wait with the same operations at the
// same cycles as the explicit loop, and resumes the program once.
type Thread struct {
	id    int
	yield func(struct{}) bool
	// queue[head:n] holds the operations the program has issued and the
	// core has not executed, in program order. The program appends while
	// it runs; the core takes from head while the program is suspended and
	// resumes it only once the queue is drained.
	queue   [runAhead]op
	head, n int
	result  uint64
}

// ID returns the thread's index, which equals its core index.
func (t *Thread) ID() int { return t.id }

// post queues an operation that returns no value, suspending the program
// only when the queue is full.
func (t *Thread) post(o op) {
	t.queue[t.n] = o
	t.n++
	if t.n == runAhead {
		t.suspend()
	}
}

// call queues a value-returning operation and suspends the program until
// the core has executed the queue, returning the result the core stores
// before resuming it.
func (t *Thread) call(o op) uint64 {
	t.queue[t.n] = o
	t.n++
	t.suspend()
	return t.result
}

// suspend switches to the core. A false yield means the run was aborted.
func (t *Thread) suspend() {
	if !t.yield(struct{}{}) {
		panic(abortSignal{})
	}
}

// Compute advances simulated time by n cycles of local work, committing n
// instructions.
func (t *Thread) Compute(n int) {
	if n <= 0 {
		return
	}
	t.post(op{kind: opCompute, cycles: sim.Tick(n)})
}

// Pause advances simulated time by n cycles without committing
// instructions, modeling a WFE/monitor-gated or futex-backed wait. Spin
// loops in synchronization primitives use it so APKI reflects useful
// instructions, matching how the paper's benchmarks (futex-based POSIX
// primitives) behave.
func (t *Thread) Pause(n int) {
	if n <= 0 {
		return
	}
	t.post(op{kind: opPause, cycles: sim.Tick(n)})
}

// SpinUntil waits until the word at a reads want, executing exactly the
// operations of
//
//	for t.Load(a) != want {
//		t.Pause(pause)
//	}
//
// at the same cycles (no Pause when pause <= 0, as Pause(0) is a no-op),
// but the core issues the polls and pauses itself and resumes the program
// only once the poll that reads want completes.
func (t *Thread) SpinUntil(a memory.Addr, want uint64, pause int) {
	t.call(op{kind: opSpin, addr: a, compare: want, cycles: sim.Tick(max(pause, 0))})
}

// Load reads the 64-bit word at a, blocking until the value returns.
func (t *Thread) Load(a memory.Addr) uint64 {
	return t.call(op{kind: opLoad, addr: a})
}

// Store writes v at a. The store is posted: the core moves past it once
// the store buffer accepts it.
func (t *Thread) Store(a memory.Addr, v uint64) {
	t.post(op{kind: opStore, addr: a, operand: v})
}

// AMO performs a value-returning atomic (CHI AtomicLoad/CAS semantics) and
// blocks until the prior value arrives.
func (t *Thread) AMO(amo memory.AMOOp, a memory.Addr, operand uint64) uint64 {
	return t.call(op{kind: opAMO, addr: a, amo: amo, operand: operand})
}

// CAS atomically compares the word at a with expect and stores v on a
// match, returning the prior value.
func (t *Thread) CAS(a memory.Addr, expect, v uint64) uint64 {
	return t.call(op{kind: opAMO, addr: a, amo: memory.AMOCAS, operand: v, compare: expect})
}

// AMOStore performs a no-return atomic (CHI AtomicStore semantics): the
// core commits past it once the store buffer accepts it (Section III-B1).
func (t *Thread) AMOStore(amo memory.AMOOp, a memory.Addr, operand uint64) {
	t.post(op{kind: opAMOStore, addr: a, amo: amo, operand: operand})
}

// Fence holds the core until every posted store and AtomicStore has
// completed — release semantics (Armv8 stlr / dmb), required before
// publishing a lock release or a producer flag.
func (t *Thread) Fence() {
	t.post(op{kind: opFence})
}

// StoreRelease writes v at a with release ordering: it fences and then
// performs a posted store.
func (t *Thread) StoreRelease(a memory.Addr, v uint64) {
	t.Fence()
	t.Store(a, v)
}

// AMOStoreRelease performs a no-return atomic with release ordering.
func (t *Thread) AMOStoreRelease(amo memory.AMOOp, a memory.Addr, operand uint64) {
	t.Fence()
	t.AMOStore(amo, a, operand)
}

// ObservedOp describes one executed thread operation for tracing.
type ObservedOp struct {
	Core     int
	Load     bool
	Store    bool
	AMO      bool
	NoReturn bool
	Compute  bool
	Cycles   sim.Tick
	Op       memory.AMOOp
	Addr     memory.Addr
	Operand  uint64
}

// Config sizes the core model.
type Config struct {
	// StoreBuffer bounds posted (non-blocking) operations in flight.
	StoreBuffer int
	// MaxAtomics bounds posted AtomicStores in flight: atomics drain from
	// the store queue nearly in order, so only a couple overlap (this is
	// what lets a slow, contended atomic backpressure the core).
	MaxAtomics int
	// IssueCost is the cycle cost of issuing a posted operation.
	IssueCost sim.Tick
	// Observe, when non-nil, receives every executed operation (tracing).
	Observe func(ObservedOp)
	// Obs, when non-nil, receives stall spans (named "stall:<reason>") on
	// the core's track whenever the program blocks on a structural hazard.
	Obs *obs.Bus
}

// DefaultConfig mirrors a Neoverse-class store queue scaled to the posted
// operations the model tracks.
func DefaultConfig() Config { return Config{StoreBuffer: 16, MaxAtomics: 2, IssueCost: 1} }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.StoreBuffer <= 0 {
		return fmt.Errorf("cpu: store buffer %d", c.StoreBuffer)
	}
	if c.MaxAtomics <= 0 {
		return fmt.Errorf("cpu: max atomics %d", c.MaxAtomics)
	}
	if c.IssueCost == 0 {
		return fmt.Errorf("cpu: zero issue cost")
	}
	return nil
}

// Core binds one program to one request node.
type Core struct {
	cfg    Config
	engine *sim.Engine
	rn     *chi.RN
	thread Thread
	// next resumes the program's coroutine until it waits on a value, fills
	// its queue or returns; stop unwinds a suspended coroutine (see Abort).
	next func() (struct{}, bool)
	stop func()
	// resume is advance(0), bound once for every operation that hands the
	// program no value.
	resume func()

	started        bool
	finished       bool
	aborted        bool
	outstanding    int
	outstandingAMO int
	// pendingWords counts in-flight posted operations per 8-byte word, to
	// preserve program order: a load (or value-returning AMO) to a word
	// with a pending posted write must not complete with a stale value.
	pendingWords map[memory.Addr]int
	// blocking is the request record of the blocking Load, AMO or CAS in
	// flight (the program waits on it, so there is at most one). free holds
	// the posted records whose Done has run, ready for reuse; a record is
	// made only when none is free, so there are at most StoreBuffer.
	blocking chi.Request
	free     []*postedReq
	// waiting is the single blocked operation (the program can only wait
	// on one condition at a time); blocked says whether one is pending.
	waiting  op
	blocked  bool
	onFinish func()
	// spin is the SpinUntil in progress while spinning is set; pausing
	// says its Pause after a missed poll is under way. Neither is in
	// Snapshot: replay rebuilds them.
	spin     op
	spinning bool
	pausing  bool
	// stallName/stallStart describe the pending blocked operation for the
	// observability bus; stallName is empty when no stall is recorded.
	stallName  string
	stallStart sim.Tick

	// Instructions counts committed instructions (compute cycles count one
	// each), the denominator of APKI.
	Instructions uint64
	// Resumes counts the times the core resumed the program's coroutine.
	// It measures host work, not simulated work, so no result records it.
	Resumes uint64
	// FinishedAt is the cycle the program completed.
	FinishedAt sim.Tick
}

// postedReq is the request record of one posted Store or AtomicStore.
type postedReq struct {
	req  chi.Request
	core *Core
	word memory.Addr
	amo  bool
}

// New creates a core running prog against rn. Call Start to schedule its
// first fetch; onFinish runs when the program returns.
func New(cfg Config, engine *sim.Engine, rn *chi.RN, prog Program, onFinish func()) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if prog == nil {
		return nil, fmt.Errorf("cpu: nil program")
	}
	c := &Core{
		cfg:          cfg,
		engine:       engine,
		rn:           rn,
		onFinish:     onFinish,
		pendingWords: make(map[memory.Addr]int),
		free:         make([]*postedReq, 0, cfg.StoreBuffer),
		thread:       Thread{id: rn.ID()},
	}
	c.resume = func() { c.advance(0) }
	c.blocking.Done = c.advance
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.thread.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abortSignal); !ok {
					// next re-raises this on the engine's goroutine, whose
					// stack does not show the program: carry its own.
					panic(fmt.Errorf("cpu: program on core %d panicked: %v\n\n%s", c.thread.id, r, debug.Stack()))
				}
			}
		}()
		prog(&c.thread)
	})
	return c, nil
}

// Start schedules the core's first instruction after delay cycles.
func (c *Core) Start(delay sim.Tick) {
	c.engine.ScheduleKind(delay, perf.KindCPU, c.resume)
}

// Finished reports whether the program has returned.
func (c *Core) Finished() bool { return c.finished }

// Abort unwinds the program coroutine of an abandoned run, wherever it is
// suspended (a full queue included), and drops its queued operations; it
// returns once the coroutine has exited. The core must not be advanced
// afterwards.
func (c *Core) Abort() {
	if c.finished || c.aborted {
		return
	}
	c.aborted = true
	c.stop()
	c.finished = true
}

// advance executes the program's next operation. During a SpinUntil it
// takes the spin's next poll or pause until a poll reads the wanted value;
// otherwise, while operations are queued, it takes the next one; once the
// queue is drained it hands result to the program and resumes the
// coroutine, which queues more or returns. Every operation therefore
// executes in the event at which the core moves past the one before it,
// whether or not the coroutine switched in between. It runs on the
// simulation thread. A program's panic re-raises here, wrapped with the
// program's stack.
func (c *Core) advance(result uint64) {
	if c.aborted {
		return
	}
	c.started = true
	t := &c.thread
	if c.spinning {
		switch {
		case c.pausing:
			c.pausing = false
			c.execute(op{kind: opLoad, addr: c.spin.addr})
			return
		case result != c.spin.compare:
			if c.spin.cycles > 0 {
				c.pausing = true
				c.execute(op{kind: opPause, cycles: c.spin.cycles})
			} else {
				c.execute(op{kind: opLoad, addr: c.spin.addr})
			}
			return
		}
		c.spinning = false
	}
	if t.head == t.n {
		t.result, t.head, t.n = result, 0, 0
		// Once the program has returned, next returns at once and the
		// queue stays empty.
		c.Resumes++
		c.next()
		if t.n == 0 {
			c.finished = true
			c.FinishedAt = c.engine.Now()
			if c.onFinish != nil {
				c.onFinish()
			}
			return
		}
	}
	o := t.queue[t.head]
	t.head++
	if o.kind == opSpin {
		// The spin's first poll; a SpinUntil is value-returning, so it
		// is the last operation queued.
		c.spin, c.spinning = o, true
		o = op{kind: opLoad, addr: o.addr}
	}
	c.execute(o)
}

func (c *Core) execute(o op) {
	if c.cfg.Observe != nil {
		c.cfg.Observe(ObservedOp{
			Core:     c.rn.ID(),
			Load:     o.kind == opLoad,
			Store:    o.kind == opStore,
			AMO:      o.kind == opAMO || o.kind == opAMOStore,
			NoReturn: o.kind == opAMOStore,
			Compute:  o.kind == opCompute,
			Cycles:   o.cycles,
			Op:       o.amo,
			Addr:     o.addr,
			Operand:  o.operand,
		})
	}
	switch o.kind {
	case opCompute:
		c.Instructions += uint64(o.cycles)
		c.engine.ScheduleKind(o.cycles, perf.KindCPU, c.resume)
		return
	case opPause:
		c.engine.ScheduleKind(o.cycles, perf.KindCPU, c.resume)
		return
	}
	c.Instructions++
	if c.ready(o) {
		c.issue(o)
		return
	}
	if c.blocked {
		panic("cpu: second blocked continuation")
	}
	if c.cfg.Obs != nil {
		c.stallName, c.stallStart = c.stall(o), c.engine.Now()
	}
	c.waiting, c.blocked = o, true
}

// ready reports whether o may issue: a fence waits for every posted
// operation, a value-returning access for the posted writes to its word
// (the model has no store-to-load forwarding, so it conservatively stalls
// instead of observing a pre-write value), and a posted operation for a
// store-buffer entry and, if atomic, an atomic-queue slot.
func (c *Core) ready(o op) bool {
	switch o.kind {
	case opFence:
		return c.outstanding == 0
	case opLoad, opAMO:
		return c.pendingWords[wordOf(o.addr)] == 0
	case opAMOStore:
		if c.outstandingAMO >= c.cfg.MaxAtomics {
			return false
		}
	}
	return c.outstanding < c.cfg.StoreBuffer
}

// stall names the hazard blocking o for the observability bus.
func (c *Core) stall(o op) string {
	switch o.kind {
	case opFence:
		return "stall:fence"
	case opLoad:
		return "stall:load-order"
	case opAMO:
		return "stall:atomic-order"
	case opAMOStore:
		if c.outstanding < c.cfg.StoreBuffer {
			return "stall:atomic-queue"
		}
	}
	return "stall:store-buffer"
}

// issue performs o once ready(o) holds: a blocking access resumes the
// program from its Done, a fence or posted operation by scheduling resume.
func (c *Core) issue(o op) {
	switch o.kind {
	case opFence:
		c.engine.ScheduleKind(0, perf.KindCPU, c.resume)
	case opLoad, opAMO:
		r := &c.blocking
		r.Kind = chi.Load
		if o.kind == opAMO {
			r.Kind = chi.AMO
		}
		r.Addr, r.Op, r.Operand, r.Compare = o.addr, o.amo, o.operand, o.compare
		c.rn.Access(r)
	case opStore, opAMOStore:
		c.outstanding++
		p := c.record()
		p.word, p.amo = wordOf(o.addr), o.kind == opAMOStore
		if p.amo {
			c.outstandingAMO++
		}
		c.pendingWords[p.word]++
		r := &p.req
		r.Kind = chi.Store
		if p.amo {
			r.Kind = chi.AMO
		}
		r.Addr, r.Op, r.Operand, r.NoReturn = o.addr, o.amo, o.operand, p.amo
		c.rn.Access(r)
		c.engine.ScheduleKind(c.cfg.IssueCost, perf.KindCPU, c.resume)
	}
}

// record returns a free posted record, making one if none is free.
func (c *Core) record() *postedReq {
	if n := len(c.free); n > 0 {
		p := c.free[n-1]
		c.free = c.free[:n-1]
		return p
	}
	p := &postedReq{core: c}
	p.req.Done = p.done
	return p
}

// done retires a posted operation and frees its record, then issues the
// blocked operation (a stalled issue, a draining fence, or an
// ordering-stalled access) if it is now ready.
func (p *postedReq) done(uint64) {
	c := p.core
	if c.pendingWords[p.word]--; c.pendingWords[p.word] == 0 {
		delete(c.pendingWords, p.word)
	}
	if p.amo {
		c.outstandingAMO--
	}
	c.outstanding--
	c.free = append(c.free, p)
	if !c.blocked || !c.ready(c.waiting) {
		return
	}
	c.blocked = false
	if c.stallName != "" {
		now := c.engine.Now()
		c.cfg.Obs.Span(obs.Track{Group: obs.TrackCore, ID: c.rn.ID()}, c.stallName, c.stallStart, now-c.stallStart)
		// Cumulative stall cycles across cores: interval telemetry
		// differences this to show where a phase loses throughput.
		c.cfg.Obs.Count("cpu.stall-cycles", uint64(now-c.stallStart))
		c.stallName = ""
	}
	c.issue(c.waiting)
}

// PendingWord is one (word, in-flight posted writes) pair of a snapshot.
type PendingWord struct {
	Addr  memory.Addr
	Count int
}

// Snapshot is a serializable image of the core's externally visible state.
// Blocked records only whether an operation is blocked, not which one, and
// the program's queue of issued but unexecuted operations and the state of
// a SpinUntil in progress are left out — checkpoint verification replays
// the deterministic event stream, which rebuilds them.
type Snapshot struct {
	Started        bool
	Finished       bool
	Blocked        bool
	Outstanding    int
	OutstandingAMO int
	Instructions   uint64
	FinishedAt     sim.Tick
	PendingWords   []PendingWord
}

// Snapshot captures the core state in canonical (address-sorted) order.
func (c *Core) Snapshot() Snapshot {
	words := make([]PendingWord, 0, len(c.pendingWords))
	for a, n := range c.pendingWords {
		words = append(words, PendingWord{Addr: a, Count: n})
	}
	sort.Slice(words, func(i, j int) bool { return words[i].Addr < words[j].Addr })
	return Snapshot{
		Started:        c.started,
		Finished:       c.finished,
		Blocked:        c.blocked,
		Outstanding:    c.outstanding,
		OutstandingAMO: c.outstandingAMO,
		Instructions:   c.Instructions,
		FinishedAt:     c.FinishedAt,
		PendingWords:   words,
	}
}

func wordOf(a memory.Addr) memory.Addr { return a &^ 7 }
