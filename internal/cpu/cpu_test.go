package cpu

import (
	"runtime"
	"slices"
	"testing"

	"dynamo/internal/chi"
	"dynamo/internal/hbm"
	"dynamo/internal/memory"
	"dynamo/internal/noc"
	"dynamo/internal/sim"
)

type nearPolicy struct{}

func (nearPolicy) Name() string                                        { return "near" }
func (nearPolicy) Decide(int, memory.Line, memory.State) chi.Placement { return chi.Near }
func (nearPolicy) OnNearComplete(int, memory.Line)                     {}
func (nearPolicy) OnFill(int, memory.Line, bool)                       {}
func (nearPolicy) OnHit(int, memory.Line)                              {}
func (nearPolicy) OnEvict(int, memory.Line)                            {}
func (nearPolicy) OnInvalidate(int, memory.Line)                       {}

// farPolicy ships every AMO on a line the core does not hold unique to
// the line's home node.
type farPolicy struct{ nearPolicy }

func (farPolicy) Decide(int, memory.Line, memory.State) chi.Placement { return chi.Far }

func testSystem(t testing.TB) *chi.System { return testSystemWith(t, nearPolicy{}) }

func testSystemWith(t testing.TB, p chi.Policy) *chi.System {
	t.Helper()
	cfg := chi.Config{
		Cores: 4, HNSlices: 4,
		L1Sets: 16, L1Ways: 4, L2Sets: 64, L2Ways: 8, LLCSets: 256, LLCWays: 8,
		AMOBufEntries: 16,
		L1Latency:     2, L2Latency: 8, DirLatency: 2, LLCDataLatency: 10,
		ALULatency: 1, AMOBufLatency: 1, FarAMOOccupancy: 4,
		Mesh: noc.Config{Width: 4, Height: 4, RouteLatency: 1, LinkLatency: 1},
		Mem:  hbm.Config{Channels: 8, Latency: 100, LineOccupancy: 2},
	}
	s, err := chi.NewSystem(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runProgram executes programs on consecutive cores until all finish.
func runProgram(t *testing.T, s *chi.System, progs ...Program) []*Core {
	t.Helper()
	var cores []*Core
	finished := 0
	for i, p := range progs {
		c, err := New(DefaultConfig(), s.Engine, s.RNs[i], p, func() { finished++ })
		if err != nil {
			t.Fatal(err)
		}
		cores = append(cores, c)
		c.Start(0)
	}
	if !s.Engine.RunUntil(func() bool { return finished == len(progs) }, 50_000_000) {
		t.Fatal("programs did not finish")
	}
	s.Engine.Run(0)
	return cores
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{StoreBuffer: 0, MaxAtomics: 2, IssueCost: 1}).Validate(); err == nil {
		t.Error("zero store buffer accepted")
	}
	if err := (Config{StoreBuffer: 4, MaxAtomics: 2, IssueCost: 0}).Validate(); err == nil {
		t.Error("zero issue cost accepted")
	}
}

func TestNilProgramRejected(t *testing.T) {
	s := testSystem(t)
	if _, err := New(DefaultConfig(), s.Engine, s.RNs[0], nil, nil); err == nil {
		t.Fatal("nil program accepted")
	}
}

func TestSequentialExecution(t *testing.T) {
	s := testSystem(t)
	var loaded uint64
	cores := runProgram(t, s, func(th *Thread) {
		th.Store(0x100, 7)
		th.Compute(10)
		loaded = th.Load(0x100)
	})
	if loaded != 7 {
		t.Fatalf("loaded %d, want 7", loaded)
	}
	// 1 store + 10 compute + 1 load = 12 instructions.
	if cores[0].Instructions != 12 {
		t.Fatalf("Instructions = %d, want 12", cores[0].Instructions)
	}
	if cores[0].FinishedAt == 0 {
		t.Fatal("FinishedAt not recorded")
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	s := testSystem(t)
	runProgram(t, s, func(th *Thread) { th.Compute(1000) })
	if s.Engine.Now() < 1000 {
		t.Fatalf("engine at %d after Compute(1000)", s.Engine.Now())
	}
}

func TestComputeZeroIsFree(t *testing.T) {
	s := testSystem(t)
	runProgram(t, s, func(th *Thread) {
		th.Compute(0)
		th.Compute(-3)
	})
	if s.Engine.Now() != 0 {
		t.Fatalf("engine advanced to %d for no-op computes", s.Engine.Now())
	}
}

func TestAMOReturnsOldValue(t *testing.T) {
	s := testSystem(t)
	var old1, old2 uint64
	runProgram(t, s, func(th *Thread) {
		old1 = th.AMO(memory.AMOAdd, 0x200, 5)
		old2 = th.AMO(memory.AMOAdd, 0x200, 5)
	})
	if old1 != 0 || old2 != 5 {
		t.Fatalf("AMO olds = %d,%d, want 0,5", old1, old2)
	}
	if got := s.Data.Load(0x200); got != 10 {
		t.Fatalf("memory = %d, want 10", got)
	}
}

func TestCAS(t *testing.T) {
	s := testSystem(t)
	var won, lost uint64
	runProgram(t, s, func(th *Thread) {
		won = th.CAS(0x300, 0, 1)  // expect success: old 0
		lost = th.CAS(0x300, 0, 2) // expect failure: old 1
	})
	if won != 0 || lost != 1 {
		t.Fatalf("CAS results = %d,%d, want 0,1", won, lost)
	}
	if got := s.Data.Load(0x300); got != 1 {
		t.Fatalf("memory = %d, want 1", got)
	}
}

func TestPostedStoresOverlap(t *testing.T) {
	// Posted stores to distinct lines should overlap: total time must be
	// far below the sum of individual miss latencies.
	s := testSystem(t)
	const n = 8
	runProgram(t, s, func(th *Thread) {
		for i := 0; i < n; i++ {
			th.Store(memory.Addr(0x1000+i*64), uint64(i))
		}
	})
	// A single cold store costs >100 cycles; 8 posted ones must not take
	// 8x that.
	if s.Engine.Now() > 400 {
		t.Fatalf("posted stores took %d cycles; expected overlap", s.Engine.Now())
	}
	for i := 0; i < n; i++ {
		if got := s.Data.Load(memory.Addr(0x1000 + i*64)); got != uint64(i) {
			t.Fatalf("store %d lost: %d", i, got)
		}
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	s := testSystem(t)
	cfg := Config{StoreBuffer: 2, MaxAtomics: 2, IssueCost: 1}
	finished := false
	c, err := New(cfg, s.Engine, s.RNs[0], func(th *Thread) {
		for i := 0; i < 20; i++ {
			th.Store(memory.Addr(0x2000+i*64*16), uint64(i)) // all conflict-free misses
		}
	}, func() { finished = true })
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	if !s.Engine.RunUntil(func() bool { return finished }, 10_000_000) {
		t.Fatal("did not finish")
	}
	s.Engine.Run(0)
	// With 2 outstanding max and ~100-cycle misses, 20 stores must take at
	// least ~(20/2)*100 cycles.
	if s.Engine.Now() < 800 {
		t.Fatalf("store buffer of 2 finished in %d cycles; backpressure missing", s.Engine.Now())
	}
}

func TestAMOStoreCommitsEarly(t *testing.T) {
	s := testSystem(t)
	// Warm up the counter line far away from core 0... keep near policy:
	// AtomicStore with near placement still posts. Measure that the
	// program's issue side is much faster than blocking AMOs.
	elapsedPosted := func() sim.Tick {
		s := testSystem(t)
		runProgram(t, s, func(th *Thread) {
			for i := 0; i < 50; i++ {
				th.AMOStore(memory.AMOAdd, 0x400, 1)
			}
		})
		return s.Engine.Now()
	}()
	elapsedBlocking := func() sim.Tick {
		s := testSystem(t)
		runProgram(t, s, func(th *Thread) {
			for i := 0; i < 50; i++ {
				th.AMO(memory.AMOAdd, 0x400, 1)
			}
		})
		return s.Engine.Now()
	}()
	_ = s
	if elapsedPosted >= elapsedBlocking {
		t.Fatalf("AtomicStore (%d) not faster than AtomicLoad (%d)", elapsedPosted, elapsedBlocking)
	}
}

func TestTwoThreadsCommunicate(t *testing.T) {
	s := testSystem(t)
	const flag, data = 0x500, 0x540
	var got uint64
	runProgram(t, s,
		func(th *Thread) {
			th.Store(data, 99)
			th.AMOStoreRelease(memory.AMOAdd, flag, 1)
		},
		func(th *Thread) {
			for th.Load(flag) == 0 {
				th.Compute(20)
			}
			got = th.Load(data)
		},
	)
	if got != 99 {
		t.Fatalf("consumer read %d, want 99", got)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	s := testSystem(t)
	const lock, counter = 0x600, 0x640
	const iters = 30
	worker := func(th *Thread) {
		for i := 0; i < iters; i++ {
			for th.CAS(lock, 0, 1) != 0 {
				th.Compute(10)
			}
			// Critical section: non-atomic read-modify-write is only safe
			// under mutual exclusion.
			v := th.Load(counter)
			th.Compute(5)
			th.Store(counter, v+1)
			th.AMOStoreRelease(memory.AMOSwap, lock, 0)
		}
	}
	runProgram(t, s, worker, worker, worker, worker)
	if got := s.Data.Load(counter); got != 4*iters {
		t.Fatalf("counter = %d, want %d (lock failed to exclude)", got, 4*iters)
	}
}

func TestFenceDrainsStoreBuffer(t *testing.T) {
	s := testSystem(t)
	var after sim.Tick
	runProgram(t, s, func(th *Thread) {
		for i := 0; i < 8; i++ {
			th.Store(memory.Addr(0x3000+i*64*16), 1)
		}
		th.Fence()
		after = sim.Tick(0) // marker: reached only after the fence
	})
	// The fence must wait for the cold misses (>100 cycles each, posted).
	if s.Engine.Now() < 100 {
		t.Fatalf("fence returned at %d, before stores could complete", s.Engine.Now())
	}
	_ = after
}

func TestStoreReleaseOrdersData(t *testing.T) {
	s := testSystem(t)
	const flag, data = 0x800, 0x880
	var got uint64
	runProgram(t, s,
		func(th *Thread) {
			th.Store(data, 42)
			th.StoreRelease(flag, 1)
		},
		func(th *Thread) {
			for th.Load(flag) == 0 {
				th.Compute(15)
			}
			got = th.Load(data)
		},
	)
	if got != 42 {
		t.Fatalf("consumer read %d, want 42", got)
	}
}

func TestThreadID(t *testing.T) {
	s := testSystem(t)
	ids := make([]int, 2)
	runProgram(t, s,
		func(th *Thread) { ids[0] = th.ID() },
		func(th *Thread) { ids[1] = th.ID() },
	)
	if ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("thread IDs = %v", ids)
	}
}

// assertNoPrograms fails t if more goroutines run than the base count
// taken before the core was built: Abort returns only once the program's
// coroutine has exited, so no wait is needed. (A finished test's goroutine
// may still be exiting, so the count can fall below base.)
func assertNoPrograms(t *testing.T, base int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Abort, %d before the core", n, base)
	}
}

// Abort unwinds the coroutine wherever the program is: spinning, suspended
// at a Load with posted operations queued ahead of it, parked on a full
// queue, or already returned with operations left to execute. A second
// Abort is safe, and the core's pending events do not resume it.
func TestAbortUnblocksProgram(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog Program
		// at says when to abort.
		at func(c *Core) bool
	}{
		{"spinning", func(th *Thread) {
			for {
				th.Load(0x700)
				th.Compute(10)
			}
		}, func(c *Core) bool { return c.engine.Executed() >= 1000 }},
		{"queued-before-load", func(th *Thread) {
			for {
				th.Store(0x700, 1)
				th.Compute(3)
				th.Load(0x740)
			}
		}, func(c *Core) bool { return c.thread.n-c.thread.head > 1 }},
		{"parked-on-full-queue", func(th *Thread) {
			for i := 0; ; i++ {
				th.Store(memory.Addr(0x4000+i%64*64), uint64(i))
			}
		}, func(c *Core) bool { return c.thread.n == runAhead && c.thread.head < c.thread.n }},
		{"returned-with-queue", func(th *Thread) {
			for i := 0; i < 3; i++ {
				th.Store(memory.Addr(0x4000+i*64*16), 1)
			}
		}, func(c *Core) bool { return c.thread.head > 0 && c.thread.head < c.thread.n }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testSystem(t)
			base := runtime.NumGoroutine()
			c, err := New(DefaultConfig(), s.Engine, s.RNs[0], tc.prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			c.Start(0)
			if !s.Engine.RunUntil(func() bool { return tc.at(c) }, 100_000) {
				t.Fatal("the program never reached the state to abort in")
			}
			c.Abort()
			if !c.Finished() {
				t.Fatal("aborted core not finished")
			}
			assertNoPrograms(t, base)
			c.Abort()
			s.Engine.Run(0)
		})
	}
}

func TestAbortNeverStarted(t *testing.T) {
	s := testSystem(t)
	base := runtime.NumGoroutine()
	c, err := New(DefaultConfig(), s.Engine, s.RNs[0], func(th *Thread) {
		th.Load(0x700)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Abort()
	if !c.Finished() {
		t.Fatal("aborted core not finished")
	}
	assertNoPrograms(t, base)
}

// A program runs ahead through the operations that return nothing: after
// a posted call returns, the core may not have executed it yet, but never
// more than runAhead operations lag, and a value-returning call returns
// only once the core has executed everything the program issued.
func TestProgramRunsAhead(t *testing.T) {
	s := testSystem(t)
	cfg := DefaultConfig()
	issued, executed := 0, 0
	cfg.Observe = func(ObservedOp) { executed++ }
	var lag []int
	var loaded uint64
	finished := false
	c, err := New(cfg, s.Engine, s.RNs[0], func(th *Thread) {
		for i := 0; i < 20; i++ {
			th.Store(memory.Addr(0x1000+i*64), uint64(i+1))
			issued++
			lag = append(lag, issued-executed)
		}
		loaded = th.Load(0x1000 + 19*64)
		issued++
		lag = append(lag, issued-executed)
	}, func() { finished = true })
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	if !s.Engine.RunUntil(func() bool { return finished }, 1_000_000) {
		t.Fatal("program did not finish")
	}
	if slices.Max(lag[:20]) < 1 {
		t.Errorf("no posted call returned before the core executed it: lags %v", lag[:20])
	}
	if slices.Max(lag[:20]) > runAhead || slices.Min(lag[:20]) < 0 {
		t.Errorf("posted calls lag the core by %v; want 0..%d", lag[:20], runAhead)
	}
	if lag[20] != 0 || loaded != 20 {
		t.Errorf("Load returned %d with %d operations unexecuted; want 20 and none", loaded, lag[20])
	}
}

// A program may return with operations still queued: the core executes
// them and the program finishes after the last one, at the cycle it
// finished when every call suspended the program, and the store lands.
// The Store issues at cycle 10, after the Compute; the program ends one
// issue cycle later, or with the Fence once the store's miss completes.
func TestProgramFinishesAfterQueuedOperations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fence bool
		want  sim.Tick
	}{
		{"compute-store", false, 11},
		{"compute-store-fence", true, 134},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testSystem(t)
			cores := runProgram(t, s, func(th *Thread) {
				th.Compute(10)
				th.Store(0x2040, 5)
				if tc.fence {
					th.Fence()
				}
			})
			if got := cores[0].FinishedAt; got != tc.want {
				t.Errorf("FinishedAt = %d, want %d", got, tc.want)
			}
			if got := s.Data.Load(0x2040); got != 5 {
				t.Errorf("stored word = %d, want 5", got)
			}
		})
	}
}

// streamLine is the address of the i'th line of a stream cycling over 4,096
// lines: far more than the L1 and L2 hold, so every access fills its line
// and L2 victims write back.
func streamLine(i int) memory.Addr { return memory.Addr(0x100000 + i%4096*memory.LineSize) }

// postedRun issues the i'th operation of a loop of seven operations that
// return nothing and then a Load, on the line at 0x100: the program
// switches to the core once every eight operations.
func postedRun(th *Thread, i int) {
	switch i % 8 {
	case 0, 4:
		th.Store(0x100, uint64(i))
	case 1, 5:
		th.Compute(1)
	case 2:
		th.AMOStore(memory.AMOAdd, 0x108, 1)
	case 3:
		th.Pause(1)
	case 6:
		th.Fence()
	default:
		th.Load(0x100)
	}
}

// The steady-state operation path allocates nothing: the core reuses its
// request records and bound continuations, the request node its bound
// lookup stages and MSHRs, and the home node its transaction, snoop and
// directory records. Each case warms up until every line it touches has
// been touched once, then runs batches of 1,000 operations. The hit cases
// work on a line the core holds UniqueDirty; the far cases ship every
// atomic to the home node; the stream cases miss on every operation.
func TestOpPathAllocatesNothing(t *testing.T) {
	const batch = 1000
	for _, tc := range []struct {
		name   string
		policy chi.Policy
		warm   int
		op     func(th *Thread, i int)
	}{
		{"compute", nearPolicy{}, 0, func(th *Thread, _ int) { th.Compute(1) }},
		{"load-l1-hit", nearPolicy{}, 0, func(th *Thread, _ int) { th.Load(0x100) }},
		{"store-unique", nearPolicy{}, 0, func(th *Thread, _ int) { th.Store(0x100, 1) }},
		{"near-amo-unique", nearPolicy{}, 0, func(th *Thread, _ int) { th.AMO(memory.AMOAdd, 0x100, 1) }},
		{"amostore-far", farPolicy{}, 100, func(th *Thread, _ int) { th.AMOStore(memory.AMOAdd, 0x2000, 1) }},
		{"amoload-far", farPolicy{}, 100, func(th *Thread, _ int) { th.AMO(memory.AMOAdd, 0x2000, 1) }},
		{"load-miss-stream", nearPolicy{}, 4096, func(th *Thread, i int) { th.Load(streamLine(i)) }},
		{"store-miss-stream", nearPolicy{}, 4096, func(th *Thread, i int) { th.Store(streamLine(i), uint64(i)) }},
		{"posted-run", nearPolicy{}, 0, postedRun},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testSystemWith(t, tc.policy)
			ops := 0
			c, err := New(DefaultConfig(), s.Engine, s.RNs[0], func(th *Thread) {
				th.Store(0x100, 1)
				th.Fence()
				for i := 0; ; i++ {
					tc.op(th, i)
					ops++
				}
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Abort()
			c.Start(0)
			target := tc.warm
			reached := func() bool { return ops >= target }
			if !s.Engine.RunUntil(reached, 0) {
				t.Fatal("program stopped during warm-up")
			}
			perBatch := testing.AllocsPerRun(5, func() {
				target += batch
				if !s.Engine.RunUntil(reached, 0) {
					t.Fatal("program stopped")
				}
			})
			if perBatch != 0 {
				t.Fatalf("%v allocations per op, want 0", perBatch/batch)
			}
		})
	}
}

// BenchmarkThreadOp measures one program operation on one core: its share
// of the handoffs between the program and the core plus the events the
// operation schedules. compute is a Compute(1) loop; load-l1-hit loads one
// word the program warmed first, so every timed load hits in L1, and
// store-l1-hit stores to it through a posted record. load-miss loads a
// stream of lines too long for the L1 and L2, so every load fills its line
// and L2 victims write back. amostore-far posts AtomicStores and
// amoload-far issues value-returning atomics to a line the core never
// holds, so each runs at the home node's ALU. posted-run mixes seven
// operations that return nothing with an L1-hit Load (see postedRun).
// compute, store-l1-hit and amostore-far switch coroutines once per
// runAhead operations, posted-run once per eight, and the value-returning
// cases once per operation.
func BenchmarkThreadOp(b *testing.B) {
	for _, bc := range []struct {
		name string
		op   func(th *Thread, i int)
	}{
		{"compute", func(th *Thread, _ int) { th.Compute(1) }},
		{"load-l1-hit", func(th *Thread, _ int) { th.Load(0x100) }},
		{"store-l1-hit", func(th *Thread, _ int) { th.Store(0x100, 1) }},
		{"load-miss", func(th *Thread, i int) { th.Load(streamLine(i)) }},
		{"amostore-far", func(th *Thread, _ int) { th.AMOStore(memory.AMOAdd, 0x2000, 1) }},
		{"amoload-far", func(th *Thread, _ int) { th.AMO(memory.AMOAdd, 0x2000, 1) }},
		{"posted-run", postedRun},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := testSystemWith(b, farPolicy{})
			warm, done := false, false
			c, err := New(DefaultConfig(), s.Engine, s.RNs[0], func(th *Thread) {
				th.Load(0x100)
				warm = true
				for i := 0; i < b.N; i++ {
					bc.op(th, i)
				}
			}, func() { done = true })
			if err != nil {
				b.Fatal(err)
			}
			c.Start(0)
			s.Engine.RunUntil(func() bool { return warm }, 0)
			b.ReportAllocs()
			b.ResetTimer()
			if !s.Engine.RunUntil(func() bool { return done }, 0) {
				b.Fatal("program did not finish")
			}
		})
	}
}
