package chi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dynamo/internal/hbm"
	"dynamo/internal/memory"
	"dynamo/internal/noc"
	"dynamo/internal/sim"
)

// fixedPolicy always answers the same placement and ignores every event.
type fixedPolicy struct{ p Placement }

func (f fixedPolicy) Name() string                                    { return "fixed-" + f.p.String() }
func (f fixedPolicy) Decide(int, memory.Line, memory.State) Placement { return f.p }
func (f fixedPolicy) OnNearComplete(int, memory.Line)                 {}
func (f fixedPolicy) OnFill(int, memory.Line, bool)                   {}
func (f fixedPolicy) OnHit(int, memory.Line)                          {}
func (f fixedPolicy) OnEvict(int, memory.Line)                        {}
func (f fixedPolicy) OnInvalidate(int, memory.Line)                   {}

func testConfig() Config {
	return Config{
		Cores:           4,
		HNSlices:        4,
		L1Sets:          16,
		L1Ways:          4,
		L2Sets:          64,
		L2Ways:          8,
		LLCSets:         256,
		LLCWays:         8,
		AMOBufEntries:   16,
		L1Latency:       2,
		L2Latency:       8,
		DirLatency:      2,
		LLCDataLatency:  10,
		ALULatency:      1,
		AMOBufLatency:   1,
		FarAMOOccupancy: 4,
		Mesh:            noc.Config{Width: 4, Height: 4, RouteLatency: 1, LinkLatency: 1},
		Mem:             hbm.Config{Channels: 8, Latency: 100, LineOccupancy: 2},
	}
}

func newTestSystem(t testing.TB, p Policy) *System {
	t.Helper()
	s, err := NewSystemIn(testConfig(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// run issues a request on core and runs the simulation until it completes,
// returning the value and the completion latency.
func run(t *testing.T, s *System, core int, req *Request) (value uint64, latency sim.Tick) {
	t.Helper()
	done := false
	start := s.Engine.Now()
	prev := req.Done
	req.Done = func(v uint64) {
		value = v
		done = true
		if prev != nil {
			prev(v)
		}
	}
	s.Engine.Schedule(0, func() { s.RNs[core].Access(req) })
	if !s.Engine.RunUntil(func() bool { return done }, 1_000_000) {
		t.Fatalf("request %v to %#x did not complete", req.Kind, req.Addr)
	}
	latency = s.Engine.Now() - start
	s.Engine.Run(0) // drain background work (writebacks etc.)
	return value, latency
}

func TestConfigValidation(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	largest := testConfig()
	largest.L1Sets, largest.L2Sets, largest.LLCSets = 1<<15, 1<<15, 1<<15
	if err := largest.Validate(); err != nil {
		t.Fatalf("32768-set caches rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = 65 },
		func(c *Config) { c.HNSlices = 3 },
		func(c *Config) { c.L1Sets = 0 },
		func(c *Config) { c.L1Sets = 3 },
		// A cache array's 2-byte set header indexes at most 32768 sets.
		func(c *Config) { c.L1Sets = 1 << 16 },
		func(c *Config) { c.L2Sets = 1 << 16 },
		func(c *Config) { c.LLCSets = 1 << 16 },
		func(c *Config) { c.AMOBufEntries = 0 },
		func(c *Config) { c.L1Latency = 0 },
		func(c *Config) { c.Mesh.Width = 0 },
		func(c *Config) { c.Mesh.Width = 1; c.Mesh.Height = 2 },
		func(c *Config) { c.Mem.Channels = 0 },
	}
	for i, m := range mutations {
		c := testConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := NewSystemIn(good, nil, nil); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestPlacementString(t *testing.T) {
	if Near.String() != "near" || Far.String() != "far" {
		t.Fatal("Placement.String wrong")
	}
}

func TestLoadMissFillsUniqueClean(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Near})
	s.Data.StoreWord(0x1000, 77)
	v, lat := run(t, s, 0, &Request{Kind: Load, Addr: 0x1000})
	if v != 77 {
		t.Fatalf("loaded %d, want 77", v)
	}
	if st := s.RNs[0].State(memory.LineOf(0x1000)); st != memory.UniqueClean {
		t.Fatalf("state after sole read = %v, want UC", st)
	}
	// A miss must cost at least memory latency.
	if lat < 100 {
		t.Fatalf("cold load latency %d < memory latency", lat)
	}
	owner, sharers := s.HomeOf(memory.LineOf(0x1000)).Directory(memory.LineOf(0x1000))
	if owner != 0 || sharers != 1 {
		t.Fatalf("directory owner=%d sharers=%b", owner, sharers)
	}
}

func TestLoadHitIsFast(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Near})
	run(t, s, 0, &Request{Kind: Load, Addr: 0x1000})
	_, lat := run(t, s, 0, &Request{Kind: Load, Addr: 0x1000})
	if lat != s.Cfg.L1Latency {
		t.Fatalf("L1 hit latency = %d, want %d", lat, s.Cfg.L1Latency)
	}
}

func TestSecondReaderDowngradesOwner(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Near})
	run(t, s, 0, &Request{Kind: Load, Addr: 0x1000})
	run(t, s, 1, &Request{Kind: Load, Addr: 0x1000})
	line := memory.LineOf(0x1000)
	if st := s.RNs[0].State(line); st != memory.SharedClean {
		t.Fatalf("first reader state = %v, want SC", st)
	}
	if st := s.RNs[1].State(line); st != memory.SharedClean {
		t.Fatalf("second reader state = %v, want SC", st)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Near})
	run(t, s, 0, &Request{Kind: Load, Addr: 0x2000})
	run(t, s, 1, &Request{Kind: Load, Addr: 0x2000})
	run(t, s, 2, &Request{Kind: Store, Addr: 0x2000, Operand: 5})
	line := memory.LineOf(0x2000)
	if st := s.RNs[0].State(line); st != memory.Invalid {
		t.Fatalf("sharer 0 state = %v, want I", st)
	}
	if st := s.RNs[1].State(line); st != memory.Invalid {
		t.Fatalf("sharer 1 state = %v, want I", st)
	}
	if st := s.RNs[2].State(line); st != memory.UniqueDirty {
		t.Fatalf("writer state = %v, want UD", st)
	}
	if got := s.Data.Load(0x2000); got != 5 {
		t.Fatalf("memory = %d, want 5", got)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyDataMigratesOnReadUnique(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Near})
	run(t, s, 0, &Request{Kind: Store, Addr: 0x3000, Operand: 9})
	run(t, s, 1, &Request{Kind: Store, Addr: 0x3000, Operand: 10})
	line := memory.LineOf(0x3000)
	if st := s.RNs[1].State(line); st != memory.UniqueDirty {
		t.Fatalf("new writer state = %v, want UD", st)
	}
	if st := s.RNs[0].State(line); st != memory.Invalid {
		t.Fatalf("old writer state = %v, want I", st)
	}
	if got := s.Data.Load(0x3000); got != 10 {
		t.Fatalf("memory = %d, want 10", got)
	}
}

func TestReadAfterWriteSharesDirty(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Near})
	run(t, s, 0, &Request{Kind: Store, Addr: 0x4000, Operand: 3})
	v, _ := run(t, s, 1, &Request{Kind: Load, Addr: 0x4000})
	if v != 3 {
		t.Fatalf("read %d, want 3", v)
	}
	line := memory.LineOf(0x4000)
	if st := s.RNs[0].State(line); st != memory.SharedDirty {
		t.Fatalf("writer downgraded to %v, want SD", st)
	}
	if st := s.RNs[1].State(line); st != memory.SharedClean {
		t.Fatalf("reader state = %v, want SC", st)
	}
}

func TestNearAMOLocalWhenUnique(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Near})
	run(t, s, 0, &Request{Kind: Store, Addr: 0x5000, Operand: 10})
	v, lat := run(t, s, 0, &Request{Kind: AMO, Addr: 0x5000, Op: memory.AMOAdd, Operand: 1})
	if v != 10 {
		t.Fatalf("AMO returned %d, want 10", v)
	}
	if lat != s.Cfg.L1Latency {
		t.Fatalf("unique near AMO latency = %d, want %d", lat, s.Cfg.L1Latency)
	}
	if s.RNs[0].Stats.AMONearLocal != 1 {
		t.Fatalf("AMONearLocal = %d", s.RNs[0].Stats.AMONearLocal)
	}
	if got := s.Data.Load(0x5000); got != 11 {
		t.Fatalf("memory = %d, want 11", got)
	}
}

func TestNearAMOMissFetchesUnique(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Near})
	v, _ := run(t, s, 0, &Request{Kind: AMO, Addr: 0x6000, Op: memory.AMOAdd, Operand: 7})
	if v != 0 {
		t.Fatalf("AMO returned %d, want 0", v)
	}
	line := memory.LineOf(0x6000)
	if st := s.RNs[0].State(line); st != memory.UniqueDirty {
		t.Fatalf("state = %v, want UD", st)
	}
	if s.RNs[0].Stats.AMONearTxn != 1 {
		t.Fatalf("AMONearTxn = %d", s.RNs[0].Stats.AMONearTxn)
	}
	if got := s.Data.Load(0x6000); got != 7 {
		t.Fatalf("memory = %d, want 7", got)
	}
}

func TestFarAMOLoadReturnsOldValue(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Far})
	s.Data.StoreWord(0x7000, 41)
	v, _ := run(t, s, 0, &Request{Kind: AMO, Addr: 0x7000, Op: memory.AMOAdd, Operand: 1})
	if v != 41 {
		t.Fatalf("AtomicLoad returned %d, want 41", v)
	}
	if got := s.Data.Load(0x7000); got != 42 {
		t.Fatalf("memory = %d, want 42", got)
	}
	// Far AMOs never install the line at the requestor.
	if st := s.RNs[0].State(memory.LineOf(0x7000)); st != memory.Invalid {
		t.Fatalf("requestor state = %v, want I", st)
	}
	hn := s.HomeOf(memory.LineOf(0x7000))
	if hn.Stats.Atomics != 1 || hn.Stats.AtomicLoads != 1 {
		t.Fatalf("HN stats = %+v", hn.Stats)
	}
}

func TestFarAtomicStoreCompletesBeforeALU(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Far})
	// Warm the line at the HN so data timing is deterministic.
	run(t, s, 0, &Request{Kind: AMO, Addr: 0x8000, Op: memory.AMOAdd, Operand: 1, NoReturn: true})
	_, latStore := run(t, s, 0, &Request{Kind: AMO, Addr: 0x8000, Op: memory.AMOAdd, Operand: 1, NoReturn: true})
	_, latLoad := run(t, s, 0, &Request{Kind: AMO, Addr: 0x8000, Op: memory.AMOAdd, Operand: 1})
	if latStore >= latLoad {
		t.Fatalf("AtomicStore latency %d >= AtomicLoad latency %d", latStore, latLoad)
	}
	if got := s.Data.Load(0x8000); got != 3 {
		t.Fatalf("memory = %d, want 3", got)
	}
}

// An issuer may reuse a request record once its Done has run. A far
// AtomicStore is acknowledged before its ALU runs (here, long before: the
// line comes from memory), so the home node must execute the operation it
// was sent, not whatever the record holds by then.
func TestRequestReusableAfterDone(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Far})
	const addr, other = 0xe000, 0xf000
	s.Data.StoreWord(addr, 10)
	req := &Request{Kind: AMO, Addr: addr, Op: memory.AMOAdd, Operand: 5, NoReturn: true}
	req.Done = func(uint64) {
		if got := s.Data.Load(addr); got != 10 {
			t.Errorf("at the acknowledgement the word holds %d, want 10: the ALU ran first", got)
		}
		// Recycle the record, as a core does for its next posted operation.
		req.Addr, req.Op, req.Operand = other, memory.AMOSwap, 99
	}
	run(t, s, 0, req)
	if got := s.Data.Load(addr); got != 15 {
		t.Fatalf("original address holds %d, want 15", got)
	}
	if got := s.Data.Load(other); got != 0 {
		t.Fatalf("rewritten address holds %d, want 0", got)
	}
}

// A snoop fan-out allocates nothing once the records it needs exist. Each
// round stores to a line three other RNs share, whose upgrade invalidates
// them with three snoops, then has each of those RNs load the line back,
// snooping the dirty owner to downgrade it.
func TestSnoopFanOutAllocatesNothing(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Near})
	const addr = 0x4000
	hn := s.HomeOf(memory.LineOf(addr))
	done, target := 0, 0
	finish := func(uint64) { done++ }
	reached := func() bool { return done >= target }
	store := &Request{Kind: Store, Addr: addr, Operand: 1, Done: finish}
	issue := []func(){func() { s.RNs[0].Access(store) }}
	for _, rn := range s.RNs[1:] {
		load := &Request{Kind: Load, Addr: addr, Done: finish}
		issue = append(issue, func() { rn.Access(load) })
	}
	round := func() {
		for _, fn := range issue {
			target++
			s.Engine.Schedule(0, fn)
			if !s.Engine.RunUntil(reached, 1_000_000) {
				t.Fatal("request did not complete")
			}
		}
		s.Engine.Run(0)
	}
	for i := 0; i < 3; i++ {
		round()
	}
	const runs = 50
	sent := hn.Stats.SnoopsSent
	if n := testing.AllocsPerRun(runs, round); n != 0 {
		t.Fatalf("%v allocations per round, want 0", n)
	}
	// AllocsPerRun makes one more, unmeasured, call.
	if got, want := hn.Stats.SnoopsSent-sent, uint64(6*(runs+1)); got != want {
		t.Fatalf("%d snoops sent, want %d: three invalidations and three downgrades a round", got, want)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestFarAMOSnoopsRequestorUniqueCopy(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Far})
	// Policy Far is only consulted for non-unique states, so force the
	// pathological case by storing first (UD) and then issuing an AMO from
	// another core, which far-AMOs and must snoop the owner.
	run(t, s, 0, &Request{Kind: Store, Addr: 0x9000, Operand: 50})
	v, _ := run(t, s, 1, &Request{Kind: AMO, Addr: 0x9000, Op: memory.AMOAdd, Operand: 1})
	if v != 50 {
		t.Fatalf("AMO returned %d, want 50", v)
	}
	if st := s.RNs[0].State(memory.LineOf(0x9000)); st != memory.Invalid {
		t.Fatalf("previous owner state = %v, want I", st)
	}
	if s.RNs[0].Stats.Invalidations != 1 {
		t.Fatalf("owner invalidations = %d, want 1", s.RNs[0].Stats.Invalidations)
	}
}

func TestUniqueStateAlwaysNearEvenUnderFarPolicy(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Far})
	// First AMO goes far (state I)...
	run(t, s, 0, &Request{Kind: AMO, Addr: 0xa000, Op: memory.AMOAdd, Operand: 1})
	// ...then make the line unique at core 0 via a store.
	run(t, s, 0, &Request{Kind: Store, Addr: 0xa000, Operand: 100})
	_, lat := run(t, s, 0, &Request{Kind: AMO, Addr: 0xa000, Op: memory.AMOAdd, Operand: 1})
	if lat != s.Cfg.L1Latency {
		t.Fatalf("unique-state AMO latency = %d, want local %d", lat, s.Cfg.L1Latency)
	}
	if s.RNs[0].Stats.AMONearLocal != 1 {
		t.Fatalf("AMONearLocal = %d, want 1", s.RNs[0].Stats.AMONearLocal)
	}
}

func TestAMOBufferAccelerates(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Far})
	_, cold := run(t, s, 0, &Request{Kind: AMO, Addr: 0xb000, Op: memory.AMOAdd, Operand: 1})
	_, warm := run(t, s, 0, &Request{Kind: AMO, Addr: 0xb000, Op: memory.AMOAdd, Operand: 1})
	if warm >= cold {
		t.Fatalf("AMO buffer did not accelerate: cold %d, warm %d", cold, warm)
	}
	hn := s.HomeOf(memory.LineOf(0xb000))
	if hn.Stats.AMOBufHits != 1 {
		t.Fatalf("AMOBufHits = %d, want 1", hn.Stats.AMOBufHits)
	}
}

func TestL1EvictionDemotesToL2(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Near})
	// Fill one L1 set (16 sets, 4 ways): lines mapping to set 0.
	base := memory.Addr(0)
	for i := 0; i < 5; i++ {
		addr := base + memory.Addr(i)*16*memory.LineSize
		run(t, s, 0, &Request{Kind: Store, Addr: addr, Operand: uint64(i)})
	}
	// The first line fell out of L1 into L2 but is still held (UD).
	first := memory.LineOf(base)
	if st := s.RNs[0].State(first); st != memory.UniqueDirty {
		t.Fatalf("demoted line state = %v, want UD", st)
	}
	// Re-access hits L2, not memory.
	_, lat := run(t, s, 0, &Request{Kind: Load, Addr: base})
	if lat >= 100 {
		t.Fatalf("L2 hit took %d cycles (memory-like)", lat)
	}
	if s.RNs[0].Stats.L2Hits == 0 {
		t.Fatal("no L2 hit recorded")
	}
}

func TestWriteBackReachesLLC(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Near})
	// Thrash enough distinct lines mapping to one L1 and L2 set to force a
	// full writeback: L1 set 0 has 4 ways, L2 set 0 has 8 ways; 13 lines
	// that alias in both guarantee an eviction to the HN.
	var addrs []memory.Addr
	for i := 0; i < 13; i++ {
		addrs = append(addrs, memory.Addr(i)*64*memory.LineSize*16)
	}
	for i, a := range addrs {
		run(t, s, 0, &Request{Kind: Store, Addr: a, Operand: uint64(i)})
	}
	if s.RNs[0].Stats.WriteBacks == 0 {
		t.Fatal("no writebacks recorded")
	}
	// All values remain visible.
	for i, a := range addrs {
		if v, _ := run(t, s, 1, &Request{Kind: Load, Addr: a}); v != uint64(i) {
			t.Fatalf("lost write: addr %#x = %d, want %d", a, v, i)
		}
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestPingPongFarBeatsNear(t *testing.T) {
	// Access pattern (a) of Fig. 3: two cores alternate AMOs on one line.
	elapse := func(p Policy) sim.Tick {
		s := newTestSystem(t, p)
		for i := 0; i < 50; i++ {
			run(t, s, i%2, &Request{Kind: AMO, Addr: 0xc000, Op: memory.AMOAdd, Operand: 1, NoReturn: true})
		}
		return s.Engine.Now()
	}
	near := elapse(fixedPolicy{Near})
	far := elapse(fixedPolicy{Far})
	if far >= near {
		t.Fatalf("far (%d cycles) not faster than near (%d cycles) under ping-pong", far, near)
	}
}

func TestReuseNearBeatsFar(t *testing.T) {
	// Access pattern (b) of Fig. 3: each core performs 4 AMOs in a row.
	elapse := func(p Policy) sim.Tick {
		s := newTestSystem(t, p)
		for i := 0; i < 100; i++ {
			run(t, s, (i/4)%2, &Request{Kind: AMO, Addr: 0xd000, Op: memory.AMOAdd, Operand: 1})
		}
		return s.Engine.Now()
	}
	near := elapse(fixedPolicy{Near})
	far := elapse(fixedPolicy{Far})
	if near >= far {
		t.Fatalf("near (%d cycles) not faster than far (%d cycles) under reuse", near, far)
	}
}

// The atomicity invariant: concurrent increments are never lost, whatever
// the placement mix.
func TestNoLostUpdates(t *testing.T) {
	for _, p := range []Placement{Near, Far} {
		s := newTestSystem(t, fixedPolicy{p})
		const perCore, cores = 200, 4
		doneCount := 0
		for c := 0; c < cores; c++ {
			c := c
			var issue func(i int)
			issue = func(i int) {
				if i == perCore {
					doneCount++
					return
				}
				s.RNs[c].Access(&Request{
					Kind: AMO, Addr: 0xe000, Op: memory.AMOAdd, Operand: 1,
					Done: func(uint64) { issue(i + 1) },
				})
			}
			s.Engine.Schedule(sim.Tick(c), func() { issue(0) })
		}
		if !s.Engine.RunUntil(func() bool { return doneCount == cores }, 50_000_000) {
			t.Fatalf("policy %v: increments did not finish", p)
		}
		s.Engine.Run(0)
		if got := s.Data.Load(0xe000); got != perCore*cores {
			t.Fatalf("policy %v: counter = %d, want %d", p, got, perCore*cores)
		}
		if err := s.CheckCoherence(); err != nil {
			t.Fatalf("policy %v: %v", p, err)
		}
	}
}

// Property: random concurrent mixes of loads, stores and AMOs across cores
// preserve the coherence invariant and AMO-sum conservation.
func TestRandomTrafficCoherenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		placement := Placement(rng.Intn(2))
		s, err := NewSystemIn(testConfig(), fixedPolicy{placement}, nil)
		if err != nil {
			t.Fatal(err)
		}
		const ops = 300
		lines := []memory.Addr{0x0, 0x1000, 0x2040, 0x3080, 0x40c0}
		adds := uint64(0)
		pending := 0
		for i := 0; i < ops; i++ {
			core := rng.Intn(s.Cfg.Cores)
			addr := lines[rng.Intn(len(lines))]
			var req *Request
			switch rng.Intn(3) {
			case 0:
				req = &Request{Kind: Load, Addr: addr}
			case 1:
				// Stores write to a disjoint word of the line so they don't
				// clobber the AMO counter at offset 0.
				req = &Request{Kind: Store, Addr: addr + 8, Operand: uint64(i)}
			case 2:
				req = &Request{Kind: AMO, Addr: addr, Op: memory.AMOAdd, Operand: 1, NoReturn: rng.Intn(2) == 0}
				adds++
			}
			pending++
			req.Done = func(uint64) { pending-- }
			delay := sim.Tick(rng.Intn(50))
			s.Engine.Schedule(delay, func() { s.RNs[core].Access(req) })
		}
		if !s.Engine.RunUntil(func() bool { return pending == 0 }, 10_000_000) {
			return false
		}
		s.Engine.Run(0)
		if err := s.CheckCoherence(); err != nil {
			t.Logf("coherence: %v", err)
			return false
		}
		var sum uint64
		for _, a := range lines {
			sum += s.Data.Load(a)
		}
		return sum == adds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: identical runs produce identical end times and stats.
func TestDeterminism(t *testing.T) {
	runOnce := func() (sim.Tick, uint64) {
		s := newTestSystem(t, fixedPolicy{Near})
		done := 0
		for c := 0; c < 4; c++ {
			c := c
			for i := 0; i < 50; i++ {
				i := i
				s.Engine.Schedule(sim.Tick(i), func() {
					s.RNs[c].Access(&Request{
						Kind: AMO, Addr: memory.Addr(0xf000 + (i%3)*64), Op: memory.AMOAdd, Operand: 1,
						NoReturn: true, Done: func(uint64) { done++ },
					})
				})
			}
		}
		s.Engine.Run(0)
		return s.Engine.Now(), s.Mesh.Stats().Flits
	}
	t1, f1 := runOnce()
	t2, f2 := runOnce()
	if t1 != t2 || f1 != f2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", t1, f1, t2, f2)
	}
}

// A prefetch's latency counts from when it was made, as a demand load's
// does: over a long sequential stream, LoadLatencySum averaged over the
// demand loads and prefetches stays within an uncontended miss or two,
// instead of growing with the cycle at which each prefetch completes.
func TestPrefetchLatencyStartsWhenMade(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchDegree = 4
	s, err := NewSystemIn(cfg, fixedPolicy{Near}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const base = 0x100000
	_, miss := run(t, s, 0, &Request{Kind: Load, Addr: base})
	for i := 1; i < 512; i++ {
		run(t, s, 0, &Request{Kind: Load, Addr: memory.Addr(base + i*memory.LineSize)})
	}
	st := s.RNs[0].Stats
	if st.Prefetches == 0 {
		t.Fatal("the stream never armed the prefetcher")
	}
	if mean := st.LoadLatencySum / (st.Loads + st.Prefetches); mean > 2*uint64(miss) {
		t.Fatalf("mean load latency %d cycles over %d loads and %d prefetches (run ended at cycle %d); an uncontended miss takes %d",
			mean, st.Loads, st.Prefetches, s.Engine.Now(), miss)
	}
}
