package chi

import (
	"errors"
	"testing"

	"dynamo/internal/check"
	"dynamo/internal/memory"
)

// checkedTestSystem builds the test system with a sanitizer attached.
func checkedTestSystem(t testing.TB, cfg check.Config) *System {
	t.Helper()
	s := newTestSystem(t, fixedPolicy{Near})
	s.EnableCheck(check.New(cfg))
	return s
}

func TestReleaseIdleLineIsViolation(t *testing.T) {
	s := checkedTestSystem(t, check.Config{})
	s.HomeOf(0x10).ReleaseForTest(0x10)
	v := s.Violation
	if v == nil {
		t.Fatal("double release not caught")
	}
	if v.Kind != check.KindProtocol {
		t.Errorf("kind = %v, want protocol", v.Kind)
	}
	if !v.HasLine || v.Line != 0x10 {
		t.Errorf("line = %#x (has %v), want 0x10", uint64(v.Line), v.HasLine)
	}
	if !errors.Is(v, check.ErrViolation) {
		t.Error("violation does not match check.ErrViolation")
	}
}

func TestFillWithoutMSHRIsViolation(t *testing.T) {
	s := checkedTestSystem(t, check.Config{})
	rn := s.RNs[0]
	line := memory.LineOf(0x2000)
	s.Engine.Schedule(0, func() { rn.Access(&Request{Kind: Load, Addr: 0x2000}) })
	// Let the miss allocate its MSHR, then corrupt the RN by dropping it
	// while the fill is still in flight.
	if !s.Engine.RunUntil(func() bool { _, ok := rn.mshrs[line]; return ok }, 10_000) {
		t.Fatal("load miss never allocated an MSHR")
	}
	rn.DropMSHRForTest(line)
	s.Engine.RunUntil(func() bool { return s.Violation != nil }, 1_000_000)
	v := s.Violation
	if v == nil {
		t.Fatal("fill without MSHR not caught")
	}
	if v.Kind != check.KindProtocol || v.Core != 0 || v.Line != line {
		t.Errorf("violation = %v, want protocol at core 0 line %#x", v, uint64(line))
	}
	if len(v.Trail) == 0 {
		t.Error("violation carries no recent-event trail")
	}
}

func TestSetL1StateAbsentIsViolation(t *testing.T) {
	s := checkedTestSystem(t, check.Config{})
	s.RNs[2].setL1State(0x40, memory.UniqueDirty)
	v := s.Violation
	if v == nil {
		t.Fatal("setL1State on absent line not caught")
	}
	if v.Kind != check.KindProtocol || v.Core != 2 {
		t.Errorf("violation = %v, want protocol at core 2", v)
	}
}

func TestAuditCatchesDoubleUnique(t *testing.T) {
	s := checkedTestSystem(t, check.Config{})
	s.RNs[0].ForceStateForTest(0x8, memory.UniqueDirty)
	s.RNs[1].ForceStateForTest(0x8, memory.UniqueDirty)
	v := s.AuditCoherence()
	if v == nil {
		t.Fatal("two unique owners not caught")
	}
	if v.Kind != check.KindSWMR || v.Line != 0x8 {
		t.Errorf("violation = %v, want swmr on line 0x8", v)
	}
}

func TestAuditCatchesDirectoryDisagreement(t *testing.T) {
	s := checkedTestSystem(t, check.Config{})
	// A unique copy the directory has never heard of: the sharer bit is
	// clear, which the one-directional agreement audit must flag.
	s.RNs[3].ForceStateForTest(0x8, memory.UniqueClean)
	v := s.AuditCoherence()
	if v == nil {
		t.Fatal("directory disagreement not caught")
	}
	if v.Kind != check.KindDirectory || v.Core != 3 {
		t.Errorf("violation = %v, want directory at core 3", v)
	}
}

func TestMSHRBoundIsViolation(t *testing.T) {
	s := checkedTestSystem(t, check.Config{MaxMSHRs: 1})
	s.Engine.Schedule(0, func() {
		s.RNs[0].Access(&Request{Kind: Load, Addr: 0x1000})
		s.RNs[0].Access(&Request{Kind: Load, Addr: 0x9000})
	})
	s.Engine.RunUntil(func() bool { return s.Violation != nil }, 1_000_000)
	v := s.Violation
	if v == nil {
		t.Fatal("MSHR bound breach not caught")
	}
	if v.Kind != check.KindOccupancy || v.Core != 0 {
		t.Errorf("violation = %v, want occupancy at core 0", v)
	}
}

func TestCheckedRunStaysCleanAndAudits(t *testing.T) {
	s := checkedTestSystem(t, check.Config{})
	s.Data.StoreWord(0x1000, 5)
	run(t, s, 0, &Request{Kind: Load, Addr: 0x1000})
	run(t, s, 1, &Request{Kind: AMO, Addr: 0x1000, Op: memory.AMOAdd, Operand: 3})
	if s.Violation != nil {
		t.Fatalf("clean run violated: %v", s.Violation)
	}
	if v := s.AuditCoherence(); v != nil {
		t.Fatalf("final audit violated: %v", v)
	}
	if v := s.AuditDrained(); v != nil {
		t.Fatalf("drain audit violated: %v", v)
	}
	rep := s.Check.Report()
	if rep.ReleaseAudits == 0 {
		t.Error("no release audits ran")
	}
	if rep.Audits == 0 {
		t.Error("full audit not counted")
	}
	if rep.MaxMSHRs == 0 {
		t.Error("MSHR occupancy never observed")
	}
	if !rep.Clean {
		t.Error("report not clean")
	}
}

func TestAuditDrainedFlagsLeftovers(t *testing.T) {
	s := checkedTestSystem(t, check.Config{})
	rn := s.RNs[1]
	line := memory.LineOf(0x3000)
	s.Engine.Schedule(0, func() { rn.Access(&Request{Kind: Load, Addr: 0x3000}) })
	if !s.Engine.RunUntil(func() bool { _, ok := rn.mshrs[line]; return ok }, 10_000) {
		t.Fatal("load miss never allocated an MSHR")
	}
	v := s.AuditDrained()
	if v == nil {
		t.Fatal("outstanding MSHR after drain not flagged")
	}
	if v.Kind != check.KindLeak || v.Core != 1 {
		t.Errorf("violation = %v, want leak at core 1", v)
	}
}

// AuditDrained names the lowest leftover line, so repeated audits of one
// state agree however the maps iterate.
func TestAuditDrainedIsDeterministic(t *testing.T) {
	s := checkedTestSystem(t, check.Config{})
	rn := s.RNs[1]
	addrs := []memory.Addr{0x9000, 0x3000, 0x6000} // all homed at one HN
	lowest := memory.LineOf(0x3000)
	hn := s.HomeOf(lowest)
	s.Engine.Schedule(0, func() {
		for _, a := range addrs {
			rn.Access(&Request{Kind: Load, Addr: a})
		}
	})
	audit := func(want string) {
		t.Helper()
		for i := 0; i < 50; i++ {
			v := s.AuditDrained()
			if v == nil || v.Kind != check.KindLeak || v.Line != lowest {
				t.Fatalf("audit %d = %v, want a leak at line %#x (%s)", i, v, uint64(lowest), want)
			}
		}
	}
	if !s.Engine.RunUntil(func() bool { return len(rn.mshrs) == len(addrs) }, 10_000) {
		t.Fatal("load misses never allocated their MSHRs")
	}
	audit("outstanding fills")
	if !s.Engine.RunUntil(func() bool { return hn.BusyLines() == len(addrs) }, 10_000) {
		t.Fatal("the fills never reached their home node")
	}
	for _, a := range addrs {
		rn.DropMSHRForTest(memory.LineOf(a))
	}
	audit("blocked lines")
}
