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
// Each program runs as a coroutine (iter.Pull) and interacts with the
// simulated core through blocking Thread methods: a method yields its
// operation to the core and resumes when the core hands back the result.
// The handoff is a direct coroutine switch between the engine's goroutine
// and the program's that bypasses the scheduler, so only one side runs at
// a time and simulations remain fully deterministic. (The go1.23
// constraint admits iter.Pull while the module's go directive stays 1.22.)
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

// Thread is the interface a Program uses to execute simulated operations.
// Every operation suspends the program's coroutine until the simulated
// core accepts or completes it, so Thread methods may only be called from
// the goroutine the Program was invoked on.
type Thread struct {
	id     int
	yield  func(op) bool
	result uint64
}

// ID returns the thread's index, which equals its core index.
func (t *Thread) ID() int { return t.id }

// exchange hands o to the core and returns the result the core stores
// before resuming the coroutine. A false yield means the run was aborted.
func (t *Thread) exchange(o op) uint64 {
	if !t.yield(o) {
		panic(abortSignal{})
	}
	return t.result
}

// Compute advances simulated time by n cycles of local work, committing n
// instructions.
func (t *Thread) Compute(n int) {
	if n <= 0 {
		return
	}
	t.exchange(op{kind: opCompute, cycles: sim.Tick(n)})
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
	t.exchange(op{kind: opPause, cycles: sim.Tick(n)})
}

// Load reads the 64-bit word at a, blocking until the value returns.
func (t *Thread) Load(a memory.Addr) uint64 {
	return t.exchange(op{kind: opLoad, addr: a})
}

// Store writes v at a. The store is posted: the call returns once the
// store buffer accepts it.
func (t *Thread) Store(a memory.Addr, v uint64) {
	t.exchange(op{kind: opStore, addr: a, operand: v})
}

// AMO performs a value-returning atomic (CHI AtomicLoad/CAS semantics) and
// blocks until the prior value arrives.
func (t *Thread) AMO(amo memory.AMOOp, a memory.Addr, operand uint64) uint64 {
	return t.exchange(op{kind: opAMO, addr: a, amo: amo, operand: operand})
}

// CAS atomically compares the word at a with expect and stores v on a
// match, returning the prior value.
func (t *Thread) CAS(a memory.Addr, expect, v uint64) uint64 {
	return t.exchange(op{kind: opAMO, addr: a, amo: memory.AMOCAS, operand: v, compare: expect})
}

// AMOStore performs a no-return atomic (CHI AtomicStore semantics): the
// call returns once the store buffer accepts it, letting the core commit
// past it (Section III-B1).
func (t *Thread) AMOStore(amo memory.AMOOp, a memory.Addr, operand uint64) {
	t.exchange(op{kind: opAMOStore, addr: a, amo: amo, operand: operand})
}

// Fence blocks until every posted store and AtomicStore has completed —
// release semantics (Armv8 stlr / dmb), required before publishing a lock
// release or a producer flag.
func (t *Thread) Fence() {
	t.exchange(op{kind: opFence})
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
	thread *Thread
	// next resumes the program's coroutine until its next operation; stop
	// unwinds a suspended coroutine (see Abort).
	next func() (op, bool)
	stop func()

	started        bool
	finished       bool
	aborted        bool
	outstanding    int
	outstandingAMO int
	// pendingWords counts in-flight posted operations per 8-byte word, to
	// preserve program order: a load (or value-returning AMO) to a word
	// with a pending posted write must not complete with a stale value.
	pendingWords map[memory.Addr]int
	// resume/ready hold the single blocked continuation (the program
	// thread can only wait on one condition at a time).
	resume   func()
	ready    func() bool
	onFinish func()
	// stallName/stallStart describe the pending blocked continuation for
	// the observability bus; stallName is empty when no stall is recorded.
	stallName  string
	stallStart sim.Tick

	// Instructions counts committed instructions (compute cycles count one
	// each), the denominator of APKI.
	Instructions uint64
	// FinishedAt is the cycle the program completed.
	FinishedAt sim.Tick
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
		thread:       &Thread{id: rn.ID()},
	}
	c.next, c.stop = iter.Pull(func(yield func(op) bool) {
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
		prog(c.thread)
	})
	return c, nil
}

// Start schedules the core's first instruction after delay cycles.
func (c *Core) Start(delay sim.Tick) {
	c.engine.ScheduleKind(delay, perf.KindCPU, func() { c.advance(0) })
}

// Finished reports whether the program has returned.
func (c *Core) Finished() bool { return c.finished }

// Abort unwinds the program coroutine of an abandoned run; it returns
// once the coroutine has exited. The core must not be advanced afterwards.
func (c *Core) Abort() {
	if c.finished || c.aborted {
		return
	}
	c.aborted = true
	c.stop()
	c.finished = true
}

// advance hands result to the program and executes its next operation.
// It runs on the simulation thread. A program's panic re-raises here,
// wrapped with the program's stack.
func (c *Core) advance(result uint64) {
	if c.aborted {
		return
	}
	c.started = true
	c.thread.result = result
	o, ok := c.next()
	if !ok {
		c.finished = true
		c.FinishedAt = c.engine.Now()
		if c.onFinish != nil {
			c.onFinish()
		}
		return
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
		c.engine.ScheduleKind(o.cycles, perf.KindCPU, func() { c.advance(0) })
	case opPause:
		c.engine.ScheduleKind(o.cycles, perf.KindCPU, func() { c.advance(0) })
	case opFence:
		c.Instructions++
		c.when("stall:fence", func() bool { return c.outstanding == 0 }, func() {
			c.engine.ScheduleKind(0, perf.KindCPU, func() { c.advance(0) })
		})
	case opLoad:
		c.Instructions++
		c.when("stall:load-order", c.wordClear(o.addr), func() {
			c.rn.Access(&chi.Request{
				Kind: chi.Load,
				Addr: o.addr,
				Done: func(v uint64) { c.advance(v) },
			})
		})
	case opAMO:
		c.Instructions++
		c.when("stall:atomic-order", c.wordClear(o.addr), func() {
			c.rn.Access(&chi.Request{
				Kind:    chi.AMO,
				Addr:    o.addr,
				Op:      o.amo,
				Operand: o.operand,
				Compare: o.compare,
				Done:    func(v uint64) { c.advance(v) },
			})
		})
	case opStore, opAMOStore:
		c.Instructions++
		isAMO := o.kind == opAMOStore
		issue := func() {
			c.outstanding++
			if isAMO {
				c.outstandingAMO++
			}
			w := wordOf(o.addr)
			c.pendingWords[w]++
			req := &chi.Request{
				Addr:    o.addr,
				Operand: o.operand,
				Done: func(uint64) {
					if c.pendingWords[w]--; c.pendingWords[w] == 0 {
						delete(c.pendingWords, w)
					}
					if isAMO {
						c.outstandingAMO--
					}
					c.posted()
				},
			}
			if o.kind == opStore {
				req.Kind = chi.Store
			} else {
				req.Kind = chi.AMO
				req.Op = o.amo
				req.NoReturn = true
			}
			c.rn.Access(req)
			c.engine.ScheduleKind(c.cfg.IssueCost, perf.KindCPU, func() { c.advance(0) })
		}
		stall := "stall:store-buffer"
		if isAMO && c.outstanding < c.cfg.StoreBuffer {
			stall = "stall:atomic-queue"
		}
		c.when(stall, func() bool {
			if c.outstanding >= c.cfg.StoreBuffer {
				return false
			}
			return !isAMO || c.outstandingAMO < c.cfg.MaxAtomics
		}, issue)
	}
}

// PendingWord is one (word, in-flight posted writes) pair of a snapshot.
type PendingWord struct {
	Addr  memory.Addr
	Count int
}

// Snapshot is a serializable image of the core's externally visible state.
// The blocked continuation itself cannot be serialized; Blocked records
// only whether one is pending — checkpoint verification replays the
// deterministic event stream, which reconstructs the continuation.
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
		Blocked:        c.resume != nil,
		Outstanding:    c.outstanding,
		OutstandingAMO: c.outstandingAMO,
		Instructions:   c.Instructions,
		FinishedAt:     c.FinishedAt,
		PendingWords:   words,
	}
}

func wordOf(a memory.Addr) memory.Addr { return a &^ 7 }

// wordClear is the program-order condition for value-returning accesses: no
// posted write to the same word may still be in flight, otherwise the
// access could observe a pre-write value (the model has no store-to-load
// forwarding, so it conservatively stalls instead).
func (c *Core) wordClear(a memory.Addr) func() bool {
	w := wordOf(a)
	return func() bool { return c.pendingWords[w] == 0 }
}

// when runs fn once cond holds, blocking the program until then. At most
// one continuation can be pending because the program thread is blocked
// while it waits. stall names the hazard for the observability bus.
func (c *Core) when(stall string, cond func() bool, fn func()) {
	if cond() {
		fn()
		return
	}
	if c.resume != nil {
		panic("cpu: second blocked continuation")
	}
	if c.cfg.Obs != nil {
		c.stallName, c.stallStart = stall, c.engine.Now()
	}
	c.ready = cond
	c.resume = fn
}

// posted retires one posted operation, unblocking the waiting continuation
// (a stalled issue, a draining fence, or an ordering-stalled access) if
// its condition now holds.
func (c *Core) posted() {
	c.outstanding--
	if c.resume != nil && c.ready() {
		f := c.resume
		c.resume, c.ready = nil, nil
		if c.stallName != "" {
			now := c.engine.Now()
			c.cfg.Obs.Span(obs.Track{Group: obs.TrackCore, ID: c.rn.ID()}, c.stallName, c.stallStart, now-c.stallStart)
			// Cumulative stall cycles across cores: interval telemetry
			// differences this to show where a phase loses throughput.
			c.cfg.Obs.Count("cpu.stall-cycles", uint64(now-c.stallStart))
			c.stallName = ""
		}
		f()
	}
}
