package chi

import (
	"dynamo/internal/check"
	"dynamo/internal/memory"
	"dynamo/internal/sim"
)

// This file hosts the runtime sanitizer hooks: violation reporting, the
// recent-event trail, and the coherence/directory audit walks driven by
// the machine's check loop. The invariant vocabulary (Violation, Checker,
// Report) lives in internal/check; chi contributes the walks because only
// it can see the RN cache arrays and HN directories.

// EnableCheck attaches a sanitizer to the system: occupancy bounds start
// being enforced, release-time and periodic audits become available, and
// violations carry a recent-event trail.
func (s *System) EnableCheck(ck *check.Checker) {
	s.Check = ck
	s.Trail = check.NewTrail(ck.TrailDepth())
}

// Fail records the first protocol violation and halts the engine. Later
// violations are dropped: the protocol state is already corrupt, so only
// the first report is trustworthy. Fail works with or without a checker
// attached — it is how the former panic sites surface as errors.
func (s *System) Fail(v *check.Violation) {
	if v == nil || s.Violation != nil {
		return
	}
	v.Trail = s.Trail.Recent()
	s.Violation = v
	s.Engine.Stop()
}

// tracef appends one event to the recent-event trail, when one is attached.
func (s *System) tracef(format string, args ...any) {
	if s.Trail != nil {
		s.Trail.Addf(s.Engine.Now(), format, args...)
	}
}

// SetSnoopJitter installs a chaos hook adding extra delay to each snoop
// response on its way back to the home node. Reordering snoop responses is
// protocol-legal: the fan-out completion counter is order-insensitive.
func (s *System) SetSnoopJitter(fn func(core int, line memory.Line) sim.Tick) {
	s.snoopJitter = fn
}

// lineHolders collects the private-hierarchy state of one line across all
// RNs.
func (s *System) lineHolders(line memory.Line) (holders []int, states []memory.State) {
	for _, rn := range s.RNs {
		if st := rn.State(line); st != memory.Invalid {
			holders = append(holders, rn.id)
			states = append(states, st)
		}
	}
	return
}

// lineInFlight reports whether any transaction could legally be mutating
// the line's global state: a blocked entry at its home node or an
// outstanding fill at any RN.
func (s *System) lineInFlight(line memory.Line) bool {
	hn := s.HomeOf(line)
	if _, busy := hn.busy[line]; busy {
		return true
	}
	for _, rn := range s.RNs {
		if _, ok := rn.mshrs[line]; ok {
			return true
		}
	}
	return false
}

// auditLine checks one line's SWMR invariant and, when no transaction is in
// flight, its directory agreement. Directory agreement is deliberately
// one-directional: a holder must appear in the sharer mask and a unique
// holder must be the registered owner, but a stale sharer bit or owner is
// legal (a fire-and-forget WriteBack may still be traveling).
func (s *System) auditLine(line memory.Line) *check.Violation {
	now := s.Engine.Now()
	holders, states := s.lineHolders(line)
	uniques, dirtyShared := 0, 0
	uniqueCore := -1
	for i, st := range states {
		if st.Unique() {
			uniques++
			uniqueCore = holders[i]
		}
		if st == memory.SharedDirty {
			dirtyShared++
		}
	}
	switch {
	case uniques > 1:
		return check.Violatef(check.KindSWMR, now,
			"line held unique by %d cores %v (states %v)", uniques, holders, states).AtLine(line)
	case uniques == 1 && len(holders) > 1:
		return check.Violatef(check.KindSWMR, now,
			"line unique at core %d but %d copies exist (cores %v)", uniqueCore, len(holders), holders).AtLine(line)
	case dirtyShared > 1:
		return check.Violatef(check.KindSWMR, now,
			"line has %d SharedDirty owners (cores %v)", dirtyShared, holders).AtLine(line)
	}
	if len(holders) == 0 || s.lineInFlight(line) {
		return nil
	}
	hn := s.HomeOf(line)
	owner, sharers := hn.Directory(line)
	for i, core := range holders {
		if sharers&(1<<uint(core)) == 0 {
			return check.Violatef(check.KindDirectory, now,
				"core %d holds the line %v but its sharer bit is clear (dir owner %d, sharers %#x)",
				core, states[i], owner, sharers).AtLine(line).AtCore(core).AtHN(hn.idx)
		}
		if states[i].Unique() && owner != core {
			return check.Violatef(check.KindDirectory, now,
				"core %d holds the line %v but the directory owner is %d",
				core, states[i], owner).AtLine(line).AtCore(core).AtHN(hn.idx)
		}
	}
	return nil
}

// AuditCoherence walks every line cached by any RN and audits it. It
// reports the first violation found (nil when clean) and counts as one
// full audit pass on the attached checker.
func (s *System) AuditCoherence() *check.Violation {
	s.Check.CountAudit()
	seen := make(map[memory.Line]bool)
	var found *check.Violation
	for _, rn := range s.RNs {
		rn.forEachLine(func(line memory.Line, _ memory.State) {
			if found != nil || seen[line] {
				return
			}
			seen[line] = true
			found = s.auditLine(line)
		})
		if found != nil {
			break
		}
	}
	return found
}

// AuditDrained verifies end-of-run quiescence: no RN has an outstanding
// fill and no HN has a blocked line once the event queue has emptied. A
// violation names the lowest such line, so the same state always gives the
// same report.
func (s *System) AuditDrained() *check.Violation {
	now := s.Engine.Now()
	for _, rn := range s.RNs {
		if n := len(rn.mshrs); n > 0 {
			return check.Violatef(check.KindLeak, now,
				"%d fills still outstanding after drain", n).AtCore(rn.id).AtLine(lowestLine(rn.mshrs))
		}
	}
	for _, hn := range s.HNs {
		if n := len(hn.busy); n > 0 {
			return check.Violatef(check.KindLeak, now,
				"%d lines still blocked after drain", n).AtHN(hn.idx).AtLine(lowestLine(hn.busy))
		}
	}
	return nil
}

// lowestLine returns the lowest line of a non-empty map keyed by line.
func lowestLine[V any](m map[memory.Line]V) memory.Line {
	low := ^memory.Line(0)
	for l := range m {
		low = min(low, l)
	}
	return low
}

// MSHRCount returns the number of outstanding fill transactions at this RN
// (diagnostic reporting).
func (rn *RN) MSHRCount() int { return len(rn.mshrs) }

// BusyLines returns the number of lines with an active transaction at this
// HN slice (diagnostic reporting).
func (hn *HN) BusyLines() int { return len(hn.busy) }

// ForceStateForTest plants a line in this RN's L1 with an arbitrary state,
// bypassing the protocol. Tests use it to fabricate illegal global states
// (e.g. two unique owners) and prove the sanitizer catches them. Not for
// use outside tests.
func (rn *RN) ForceStateForTest(line memory.Line, st memory.State) {
	if e, ok := rn.l1.Peek(uint64(line)); ok {
		e.state = st
		return
	}
	rn.l1.Insert(uint64(line), l1Entry{state: st})
}

// DropMSHRForTest deletes the RN's outstanding-fill entry for a line,
// fabricating the "fill without MSHR" protocol corruption. Tests only.
func (rn *RN) DropMSHRForTest(line memory.Line) {
	delete(rn.mshrs, line)
}

// ReleaseForTest releases a line at this HN as if a transaction finished,
// fabricating the double-release protocol corruption when the line is
// idle. Tests only.
func (hn *HN) ReleaseForTest(line memory.Line) {
	hn.release(line)
}
