package chi

import (
	"testing"

	"dynamo/internal/memory"
)

// Targeted tests for home-node paths not covered by the scenario tests:
// directory bookkeeping on writebacks with surviving sharers, the
// owner-evaporated fallback, and far AMOs against L2-resident copies.

func TestWriteBackWithSurvivingSharersDrops(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Near})
	// Two sharers; force core 0 to evict its copy through set pressure.
	run(t, s, 0, &Request{Kind: Load, Addr: 0x40000})
	run(t, s, 1, &Request{Kind: Load, Addr: 0x40000})
	line := memory.LineOf(0x40000)
	hn := s.HomeOf(line)
	_, sharersBefore := hn.Directory(line)
	if sharersBefore != 0b11 {
		t.Fatalf("sharers = %b, want 0b11", sharersBefore)
	}
	// Evict from core 0: thrash its L1 set 0 and L2 set 0 (the line's
	// sets). 0x40000 is line 0x1000, set 0 in both 16-set L1 and 64-set L2.
	for i := 1; i <= 13; i++ {
		addr := memory.Addr(0x40000) + memory.Addr(i)*64*memory.LineSize*16
		run(t, s, 0, &Request{Kind: Load, Addr: addr})
	}
	if st := s.RNs[0].State(line); st != memory.Invalid {
		t.Fatalf("core 0 still holds %v", st)
	}
	// Core 1's copy and directory entry must survive the writeback.
	if st := s.RNs[1].State(line); st != memory.SharedClean {
		t.Fatalf("core 1 state = %v, want SC", st)
	}
	_, sharersAfter := hn.Directory(line)
	if sharersAfter != 0b10 {
		t.Fatalf("sharers after writeback = %b, want 0b10", sharersAfter)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestFarAMOAgainstL2Copy(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Far})
	// Cores 0 and 1 share the line (SC), then core 0 demotes its copy to
	// L2 via L1 set pressure (clean, so no writeback).
	run(t, s, 0, &Request{Kind: Load, Addr: 0x50000})
	run(t, s, 1, &Request{Kind: Load, Addr: 0x50000})
	for i := 1; i <= 4; i++ {
		addr := memory.Addr(0x50000) + memory.Addr(i)*16*memory.LineSize
		run(t, s, 0, &Request{Kind: Load, Addr: addr})
	}
	line := memory.LineOf(0x50000)
	if st := s.RNs[0].State(line); st != memory.SharedClean {
		t.Fatalf("setup: core 0 state = %v, want SC (in L2)", st)
	}
	// A far AMO from core 0 itself on the shared L2 copy: the far policy
	// applies (SC is not unique), and the HN's snoop must clear both
	// cores' copies.
	v, _ := run(t, s, 0, &Request{Kind: AMO, Addr: 0x50000, Op: memory.AMOAdd, Operand: 3})
	if v != 0 {
		t.Fatalf("AMO old = %d, want 0", v)
	}
	if st := s.RNs[0].State(line); st != memory.Invalid {
		t.Fatalf("core 0 L2 copy survived a far AMO: %v", st)
	}
	if st := s.RNs[1].State(line); st != memory.Invalid {
		t.Fatalf("core 1 copy survived a far AMO: %v", st)
	}
	if got := s.Data.Load(0x50000); got != 3 {
		t.Fatalf("value = %d, want 3", got)
	}
	if s.RNs[0].Stats.AMOFar != 1 {
		t.Fatalf("AMOFar = %d, want 1", s.RNs[0].Stats.AMOFar)
	}
}

func TestDirectoryDropsEmptyEntries(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Far})
	// A far AMO on an uncached line leaves no sharers; the directory entry
	// must not linger.
	run(t, s, 0, &Request{Kind: AMO, Addr: 0x60000, Op: memory.AMOAdd, Operand: 1, NoReturn: true})
	line := memory.LineOf(0x60000)
	owner, sharers := s.HomeOf(line).Directory(line)
	if owner != -1 || sharers != 0 {
		t.Fatalf("directory entry lingers: owner=%d sharers=%b", owner, sharers)
	}
}

func TestUpgradeAfterCopyEvaporates(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Near})
	// Core 0 and 1 share; core 1's store upgrade races core 0's store.
	// Whichever loses its copy mid-flight must still end with correct data
	// (exercises the stale-hadCopy fallback in readUnique).
	run(t, s, 0, &Request{Kind: Load, Addr: 0x70000})
	run(t, s, 1, &Request{Kind: Load, Addr: 0x70000})
	done := 0
	s.Engine.Schedule(0, func() {
		s.RNs[0].Access(&Request{Kind: Store, Addr: 0x70000, Operand: 1, Done: func(uint64) { done++ }})
	})
	s.Engine.Schedule(1, func() {
		s.RNs[1].Access(&Request{Kind: Store, Addr: 0x70000 + 8, Operand: 2, Done: func(uint64) { done++ }})
	})
	if !s.Engine.RunUntil(func() bool { return done == 2 }, 1_000_000) {
		t.Fatal("stores did not complete")
	}
	s.Engine.Run(0)
	if s.Data.Load(0x70000) != 1 || s.Data.Load(0x70000+8) != 2 {
		t.Fatal("a store was lost")
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// A snoop record is reused once its response is folded in, so a snoop that
// finds no copy must not report the copy its record found last time. Here
// the record first answers a dirty forward, then snoops an owner whose copy
// is gone (as when its WriteBack is still in flight): the ReadShared must
// fall back to the home node and grant UniqueClean.
func TestReusedSnoopFindsNoCopy(t *testing.T) {
	s := newTestSystem(t, fixedPolicy{Near})
	const a, b = 0x10000, 0x20000
	run(t, s, 2, &Request{Kind: Store, Addr: a, Operand: 1})
	run(t, s, 3, &Request{Kind: Load, Addr: a}) // snoops core 2's dirty copy
	run(t, s, 0, &Request{Kind: Store, Addr: b, Operand: 2})
	line := memory.LineOf(b)
	s.RNs[0].l1.Remove(uint64(line)) // the directory still names core 0 owner
	if v, _ := run(t, s, 1, &Request{Kind: Load, Addr: b}); v != 2 {
		t.Fatalf("load read %d, want 2", v)
	}
	if st := s.RNs[1].State(line); st != memory.UniqueClean {
		t.Fatalf("reader holds %v, want UC: the snoop reported a copy", st)
	}
	if owner, sharers := s.HomeOf(line).Directory(line); owner != 1 || sharers != 1<<1 {
		t.Fatalf("directory owner %d sharers %#x, want owner 1 alone", owner, sharers)
	}
	var forwards uint64
	for _, hn := range s.HNs {
		forwards += hn.Stats.DirtyForwards
	}
	if forwards != 1 {
		t.Fatalf("%d dirty forwards, want 1", forwards)
	}
}
