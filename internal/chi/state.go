package chi

import (
	"sort"

	"dynamo/internal/memory"
	"dynamo/internal/sim"
)

// This file captures serializable snapshots of the protocol state for
// checkpointing. Snapshots are canonical: cache arrays are visited in
// Range order (set-major, MRU-first), which encodes replacement state,
// and map-backed structures are sorted by line. In-flight records (queued
// and active transactions, snoops, the requests waiting on a fill) and the
// events that carry them cannot be serialized; snapshots record their
// observable footprint (waiter counts, queue depths) and checkpoint
// verification replays the deterministic event stream to reconstruct them.

// LineState is one cached line and its coherence state, in replacement
// order within a snapshot.
type LineState struct {
	Line  memory.Line
	State memory.State
}

// MSHRState is one in-flight fill: the line, whether an AMO initiated it
// and how many requests wait on it.
type MSHRState struct {
	Line    memory.Line
	ByAMO   bool
	Waiters int
}

// RNState is a serializable image of one request node.
type RNState struct {
	Stats        RNStats
	L1           []LineState
	L2           []LineState
	MSHRs        []MSHRState
	LastMissLine memory.Line
	MissStreak   int
}

// Snapshot captures the RN state in canonical order.
func (rn *RN) Snapshot() RNState {
	s := RNState{
		Stats:        rn.Stats,
		LastMissLine: rn.lastMissLine,
		MissStreak:   rn.missStreak,
	}
	rn.l1.Range(func(k uint64, e *l1Entry) bool {
		s.L1 = append(s.L1, LineState{Line: memory.Line(k), State: e.state})
		return true
	})
	rn.l2.Range(func(k uint64, e *l2Entry) bool {
		s.L2 = append(s.L2, LineState{Line: memory.Line(k), State: e.state})
		return true
	})
	for line, m := range rn.mshrs {
		s.MSHRs = append(s.MSHRs, MSHRState{Line: line, ByAMO: m.byAMO, Waiters: len(m.reqs)})
	}
	sort.Slice(s.MSHRs, func(i, j int) bool { return s.MSHRs[i].Line < s.MSHRs[j].Line })
	return s
}

// DirState is one directory entry.
type DirState struct {
	Line    memory.Line
	Owner   int
	Sharers uint64
}

// LLCState is one LLC line, in replacement order.
type LLCState struct {
	Line  memory.Line
	Dirty bool
}

// BusyState is one blocked line and its queued-transaction depth.
type BusyState struct {
	Line   memory.Line
	Queued int
}

// HNState is a serializable image of one home-node slice.
type HNState struct {
	Stats   HNStats
	Dir     []DirState
	LLC     []LLCState
	AMOBuf  []memory.Line
	Busy    []BusyState
	ALUFree sim.Tick
}

// Snapshot captures the HN state in canonical order.
func (hn *HN) Snapshot() HNState {
	s := HNState{Stats: hn.Stats, ALUFree: hn.aluFree}
	for line, e := range hn.dir {
		s.Dir = append(s.Dir, DirState{Line: line, Owner: e.owner, Sharers: e.sharers})
	}
	sort.Slice(s.Dir, func(i, j int) bool { return s.Dir[i].Line < s.Dir[j].Line })
	hn.llc.Range(func(k uint64, e *llcEntry) bool {
		s.LLC = append(s.LLC, LLCState{Line: memory.Line(k), Dirty: e.dirty})
		return true
	})
	hn.amoBuf.Range(func(k uint64, _ *struct{}) bool {
		s.AMOBuf = append(s.AMOBuf, memory.Line(k))
		return true
	})
	for line, q := range hn.busy {
		s.Busy = append(s.Busy, BusyState{Line: line, Queued: q.n})
	}
	sort.Slice(s.Busy, func(i, j int) bool { return s.Busy[i].Line < s.Busy[j].Line })
	return s
}
