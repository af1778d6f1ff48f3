package machine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dynamo/internal/chaos"
	"dynamo/internal/checkpoint"
	"dynamo/internal/cpu"
	"dynamo/internal/memory"
)

// smallConfig shrinks the default system so unit tests stay fast.
func smallConfig(policy string) Config {
	cfg := DefaultConfig()
	cfg.Policy = policy
	cfg.Chi.Cores = 4
	cfg.Chi.HNSlices = 4
	cfg.Chi.Mesh.Width = 4
	cfg.Chi.Mesh.Height = 4
	cfg.Chi.L1Sets = 16
	cfg.Chi.L2Sets = 64
	cfg.Chi.LLCSets = 256
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Policy = "nope"
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestDefaultConfigMatchesTableII(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Chi.Cores != 32 {
		t.Errorf("cores = %d, want 32", cfg.Chi.Cores)
	}
	if got := cfg.Chi.L1Sets * cfg.Chi.L1Ways * memory.LineSize; got != 64<<10 {
		t.Errorf("L1D size = %d, want 64 KiB", got)
	}
	if got := cfg.Chi.L2Sets * cfg.Chi.L2Ways * memory.LineSize; got != 512<<10 {
		t.Errorf("L2 size = %d, want 512 KiB", got)
	}
	if got := cfg.Chi.LLCSets * cfg.Chi.LLCWays * memory.LineSize; got != 1<<20 {
		t.Errorf("LLC slice size = %d, want 1 MiB", got)
	}
	if cfg.Chi.Mesh.Width != 8 || cfg.Chi.Mesh.Height != 8 {
		t.Errorf("mesh = %dx%d, want 8x8", cfg.Chi.Mesh.Width, cfg.Chi.Mesh.Height)
	}
	if cfg.Chi.Mem.Channels != 8 {
		t.Errorf("memory channels = %d, want 8", cfg.Chi.Mem.Channels)
	}
	if cfg.AMT.Entries != 128 || cfg.AMT.Ways != 4 || cfg.AMT.CounterMax != 32 {
		t.Errorf("AMT = %+v, want 128/4/32", cfg.AMT)
	}
}

func TestRunSimpleProgram(t *testing.T) {
	m, err := New(smallConfig("all-near"))
	if err != nil {
		t.Fatal(err)
	}
	progs := []cpu.Program{
		func(th *cpu.Thread) {
			for i := 0; i < 10; i++ {
				th.AMOStore(memory.AMOAdd, 0x1000, 1)
			}
			th.Fence()
		},
		func(th *cpu.Thread) {
			for i := 0; i < 10; i++ {
				th.AMOStore(memory.AMOAdd, 0x1000, 1)
			}
			th.Fence()
		},
	}
	res, err := m.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Sys.Data.Load(0x1000); got != 20 {
		t.Fatalf("counter = %d, want 20", got)
	}
	if res.AMOs != 20 || res.AMOStores != 20 || res.AMOLoads != 0 {
		t.Fatalf("AMO counts: %+v", res)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.APKI <= 0 {
		t.Fatalf("APKI = %g", res.APKI)
	}
	if res.Energy.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
	if res.NearLocal+res.NearTxn+res.Far != 20 {
		t.Fatalf("placement split %d+%d+%d != 20", res.NearLocal, res.NearTxn, res.Far)
	}
}

func TestRunRejectsBadProgramCounts(t *testing.T) {
	m, err := New(smallConfig("all-near"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil); err == nil {
		t.Error("empty program list accepted")
	}
	progs := make([]cpu.Program, 5) // cores=4
	for i := range progs {
		progs[i] = func(th *cpu.Thread) {}
	}
	if _, err := m.Run(progs); err == nil {
		t.Error("too many programs accepted")
	}
}

func TestRunTimeout(t *testing.T) {
	cfg := smallConfig("all-near")
	cfg.MaxEvents = 1000
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run([]cpu.Program{func(th *cpu.Thread) {
		for { // never terminates
			th.Load(0x1)
			th.Compute(1)
		}
	}})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// spin is a program that never finishes on its own.
func spin(th *cpu.Thread) {
	for {
		th.Load(0x40)
		th.Compute(1)
	}
}

// A program's panic fails its run on the caller's goroutine, where the
// sweep runner recovers it, instead of killing the process. The value
// names the panic and the program's own frame, and every program's
// coroutine, the still-running ones included, is gone. The same holds for
// a program that panics after queuing posted operations, which then never
// execute.
func TestProgramPanicUnwindsRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog cpu.Program
	}{
		{"after-load", func(th *cpu.Thread) {
			th.Load(0x1000)
			panic("boom")
		}},
		{"after-queued-posts", func(th *cpu.Thread) {
			th.Store(0x1000, 1)
			th.Compute(5)
			th.AMOStore(memory.AMOAdd, 0x1040, 1)
			panic("boom")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(smallConfig("all-near"))
			if err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()
			var rec any
			func() {
				defer func() { rec = recover() }()
				_, err = m.Run([]cpu.Program{spin, tc.prog, spin})
			}()
			if rec == nil {
				t.Fatalf("Run returned (err %v) instead of panicking", err)
			}
			msg := fmt.Sprint(rec)
			if !strings.Contains(msg, "boom") || !strings.Contains(msg, "TestProgramPanicUnwindsRun") {
				t.Fatalf("panic value does not name the panic and the program frame:\n%s", msg)
			}
			// An earlier test's goroutine may still be exiting, so the count
			// can fall below base; a coroutine left behind would push it above.
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%d goroutines after the panic, %d before the run", n, base)
			}
		})
	}
}

// A checkpoint taken while programs have issued operations their cores
// have not executed restores exactly: the checkpoint leaves the queued
// operations out, and replaying the event stream rebuilds them.
func TestCheckpointWhileProgramsRunAhead(t *testing.T) {
	const pause = 600
	var issued, executed []int
	build := func() (*Machine, []cpu.Program) {
		issued, executed = make([]int, 4), make([]int, 4)
		cfg := smallConfig("dynamo-reuse-pn")
		cfg.CPU.Observe = func(o cpu.ObservedOp) { executed[o.Core]++ }
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		progs := make([]cpu.Program, 4)
		for i := range progs {
			progs[i] = func(th *cpu.Thread) {
				id := th.ID()
				for j := 0; j < 40; j++ {
					for k := 0; k < 5; k++ {
						th.Store(memory.Addr(0xb000+id*0x400+k*64), uint64(j))
						issued[id]++
					}
					th.AMOStore(memory.AMOAdd, 0x9000, 1)
					th.Compute(3)
					issued[id] += 2
					th.Store(memory.Addr(0xa000+id*64), th.Load(0x9000))
					issued[id] += 2
				}
				th.Fence()
			}
		}
		return m, progs
	}
	whole, progs := build()
	want, err := whole.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	m, progs := build()
	if res, err := m.RunTo(progs, pause); res != nil || err != nil || !m.Paused() {
		t.Fatalf("RunTo = %v, %v; want a paused run", res, err)
	}
	ahead := false
	for i := range issued {
		ahead = ahead || issued[i] > executed[i]
	}
	if !ahead {
		t.Fatalf("no program ahead of its core at event %d: issued %v, executed %v", pause, issued, executed)
	}
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	m.abortCores()
	ck, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh, progs := build()
	got, err := fresh.RunFrom(progs, ck)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("restored run diverged from the uninterrupted one:\n%s\n%s", a, b)
	}
	if a, b := fresh.Sys.Data.Load(0x9000), whole.Sys.Data.Load(0x9000); a != 160 || a != b {
		t.Fatalf("counter = %d restored, %d uninterrupted; want 160", a, b)
	}
}

// An interrupted run returns ErrInterrupted with every program's
// coroutine unwound.
func TestInterruptUnwindsPrograms(t *testing.T) {
	cfg := smallConfig("all-near")
	stop := make(chan struct{})
	close(stop)
	cfg.Interrupt = stop
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	if _, err := m.Run([]cpu.Program{spin, spin, spin, spin}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the interrupt, %d before the run", n, base)
	}
}

// A run paused with RunTo and resumed on another goroutine, as a sweep
// worker may do, ends exactly like an uninterrupted run: the program
// coroutines follow whichever goroutine drives the engine.
func TestResumeOnAnotherGoroutine(t *testing.T) {
	progs := func() []cpu.Program {
		ps := make([]cpu.Program, 4)
		for i := range ps {
			ps[i] = func(th *cpu.Thread) {
				for j := 0; j < 30; j++ {
					v := th.AMO(memory.AMOAdd, 0x9000, 1)
					th.Store(memory.Addr(0xa000+th.ID()*64), v)
					th.Compute(2)
				}
				th.Fence()
			}
		}
		return ps
	}
	whole, err := New(smallConfig("dynamo-reuse-pn"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.Run(progs())
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(smallConfig("dynamo-reuse-pn"))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := m.RunTo(progs(), 500); res != nil || err != nil || !m.Paused() {
		t.Fatalf("RunTo = %v, %v; want a paused run", res, err)
	}
	var got *Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, err = m.Resume()
	}()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions || got.NoC.Flits != want.NoC.Flits {
		t.Fatalf("resumed run: %d cycles, %d instructions, %d flits; uninterrupted: %d, %d, %d",
			got.Cycles, got.Instructions, got.NoC.Flits, want.Cycles, want.Instructions, want.NoC.Flits)
	}
	if a, b := m.Sys.Data.Load(0x9000), whole.Sys.Data.Load(0x9000); a != 120 || a != b {
		t.Fatalf("counter = %d resumed, %d uninterrupted; want 120", a, b)
	}
}

// Chaos is a Config field: New rejects an out-of-range level, a chaotic
// machine checkpoints its injector under Extra["chaos"] with the pair
// normalized, and a plain machine's checkpoint carries no Extra at all.
func TestChaosConfig(t *testing.T) {
	for _, level := range []int{-1, chaos.MaxLevel + 1} {
		cfg := smallConfig("all-near")
		cfg.ChaosLevel = level
		if _, err := New(cfg); err == nil {
			t.Errorf("chaos level %d accepted", level)
		}
	}
	capture := func(seed int64, level int) *checkpoint.Checkpoint {
		t.Helper()
		cfg := smallConfig("dynamo-reuse-pn")
		cfg.ChaosSeed, cfg.ChaosLevel = seed, level
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		progs := make([]cpu.Program, 4)
		for i := range progs {
			progs[i] = func(th *cpu.Thread) {
				for j := 0; j < 200; j++ {
					th.AMOStore(memory.AMOAdd, 0x9000, 1)
				}
				th.Fence()
			}
		}
		if res, err := m.RunTo(progs, 500); res != nil || err != nil {
			t.Fatalf("RunTo = %v, %v; want a paused run", res, err)
		}
		var buf bytes.Buffer
		if err := m.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Resume(); err != nil {
			t.Fatal(err)
		}
		ck, err := Restore(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}
	extra := func(ck *checkpoint.Checkpoint) map[string]json.RawMessage {
		var st checkpoint.State
		if err := json.Unmarshal(ck.State, &st); err != nil {
			t.Fatal(err)
		}
		return st.Extra
	}
	if extra := extra(capture(0, 0)); extra != nil {
		t.Errorf("plain checkpoint carries extra state %v", extra)
	}
	raw, ok := extra(capture(5, 0))["chaos"]
	if !ok {
		t.Fatal("chaotic checkpoint carries no chaos state")
	}
	var st struct {
		Seed  int64 `json:"seed"`
		Level int   `json:"level"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Seed != 5 || st.Level != 1 {
		t.Errorf("chaos state = seed %d level %d, want 5/1", st.Seed, st.Level)
	}
}

func TestFarPolicyRunsFar(t *testing.T) {
	m, err := New(smallConfig("unique-near"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run([]cpu.Program{func(th *cpu.Thread) {
		for i := 0; i < 16; i++ {
			// Distinct cold lines: state I, unique-near sends them far.
			th.AMOStore(memory.AMOAdd, memory.Addr(0x4000+i*64), 1)
		}
		th.Fence()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Far != 16 {
		t.Fatalf("Far = %d, want 16", res.Far)
	}
	if res.NearLocal+res.NearTxn != 0 {
		t.Fatalf("near AMOs under unique-near on cold lines: %+v", res)
	}
}

func TestDynamoPolicyRuns(t *testing.T) {
	for _, p := range []string{"dynamo-metric", "dynamo-reuse-un", "dynamo-reuse-pn"} {
		m, err := New(smallConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run([]cpu.Program{func(th *cpu.Thread) {
			for i := 0; i < 50; i++ {
				th.AMOStore(memory.AMOAdd, memory.Addr(0x8000+(i%4)*64), 1)
			}
			th.Fence()
		}})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.AMOs != 50 {
			t.Fatalf("%s: AMOs = %d", p, res.AMOs)
		}
		if got := m.Sys.Data.Load(0x8000); got == 0 {
			t.Fatalf("%s: no updates landed", p)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	runOnce := func() uint64 {
		m, err := New(smallConfig("dynamo-reuse-pn"))
		if err != nil {
			t.Fatal(err)
		}
		progs := make([]cpu.Program, 4)
		for i := range progs {
			progs[i] = func(th *cpu.Thread) {
				for j := 0; j < 40; j++ {
					th.AMOStore(memory.AMOAdd, memory.Addr(0x9000+(j%3)*64), 1)
					th.Compute(3)
				}
				th.Fence()
			}
		}
		res, err := m.Run(progs)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Cycles)*1_000_003 + res.NoC.Flits
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("non-deterministic runs: %d vs %d", a, b)
	}
}

func TestMetricAgingRuns(t *testing.T) {
	// A long-running program under dynamo-metric must trigger periodic
	// aging without wedging the run or leaving the engine spinning.
	m, err := New(smallConfig("dynamo-metric"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run([]cpu.Program{func(th *cpu.Thread) {
		for i := 0; i < 200; i++ {
			th.AMOStore(memory.AMOAdd, memory.Addr(0x5000+(i%2)*64), 1)
			th.Compute(600) // cross several aging periods
		}
		th.Fence()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < agingPeriod {
		t.Fatalf("run too short (%d cycles) to exercise aging", res.Cycles)
	}
	// The engine must be fully drained (no immortal aging tick).
	if m.Sys.Engine.Pending() != 0 {
		t.Fatalf("%d events still pending after run", m.Sys.Engine.Pending())
	}
}

// Building the Table II machine allocates well under 1 MiB: caches
// allocate their arrays on first insert, so a job pays only for the
// caches it touches.
func TestNewAllocationBudget(t *testing.T) {
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := New(DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<20 {
		t.Fatalf("New(DefaultConfig()) allocated %d bytes, want < 1 MiB", per)
	}
}

func BenchmarkNew(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
