package chi

import (
	"fmt"
	"math/bits"

	"dynamo/internal/cache"
	"dynamo/internal/check"
	"dynamo/internal/memory"
	"dynamo/internal/noc"
	"dynamo/internal/obs"
	"dynamo/internal/perf"
	"dynamo/internal/sim"
)

// txnKind classifies home-node transactions.
type txnKind uint8

const (
	txnReadShared txnKind = iota
	txnReadUnique
	txnWriteBack
	txnAtomic
)

func (k txnKind) String() string {
	switch k {
	case txnReadShared:
		return "ReadShared"
	case txnReadUnique:
		return "ReadUnique"
	case txnWriteBack:
		return "WriteBack"
	case txnAtomic:
		return "Atomic"
	}
	return fmt.Sprintf("txnKind(%d)", uint8(k))
}

// txn is a request-node message to a home node.
type txn struct {
	kind      txnKind
	line      memory.Line
	requestor int
	hadCopy   bool // requestor holds a valid copy (upgrade)
	hadDirty  bool // requestor's copy/writeback data is dirty
	// amoReq is a far atomic's request, completed through the requestor;
	// amo is its payload, copied at issue because an AtomicStore's record
	// is acknowledged, and so free for reuse, before the ALU runs.
	amoReq *Request
	amo    farAMO
	obsID  obs.TxnID
}

// farAMO is the operation a far atomic asks the home node's ALU to run.
type farAMO struct {
	op       memory.AMOOp
	addr     memory.Addr
	operand  uint64
	compare  uint64
	noReturn bool
}

// HNStats counts home-node activity.
type HNStats struct {
	ReadShared, ReadUnique, WriteBacks, Atomics uint64
	AtomicLoads, AtomicStores                   uint64
	LLCHits, LLCMisses                          uint64
	AMOBufHits, AMOBufMisses                    uint64
	SnoopsSent                                  uint64
	DirtyForwards                               uint64
}

// dirEntry is the directory's view of one line: which RNs hold copies and
// which one (if any) is responsible for dirty data.
type dirEntry struct {
	owner   int // -1 when no unique/dirty owner
	sharers uint64
}

type llcEntry struct {
	dirty bool
}

// HN is one home-node slice: the point of coherence for the lines it owns,
// holding the directory, an exclusive LLC slice, and the far-AMO ALU with
// its small AMO buffer (Section III-B2 of the paper).
type HN struct {
	sys    *System
	idx    int
	node   int
	dir    map[memory.Line]*dirEntry
	llc    *cache.SetAssoc[llcEntry]
	amoBuf *cache.SetAssoc[struct{}]
	// busy marks lines with an active transaction; the slice holds queued
	// transaction starters (CHI TBE blocking).
	busy    map[memory.Line][]func()
	aluFree sim.Tick
	Stats   HNStats
}

func newHN(s *System, idx, node int) *HN {
	return &HN{
		sys:    s,
		idx:    idx,
		node:   node,
		dir:    make(map[memory.Line]*dirEntry),
		llc:    cache.NewSetAssoc[llcEntry](s.Cfg.LLCSets, s.Cfg.LLCWays),
		amoBuf: cache.NewSetAssoc[struct{}](1, s.Cfg.AMOBufEntries),
		busy:   make(map[memory.Line][]func()),
	}
}

// Node returns the mesh node of this slice.
func (hn *HN) Node() int { return hn.node }

// Directory returns the sharer set and owner for a line (tests only).
func (hn *HN) Directory(line memory.Line) (owner int, sharers uint64) {
	if e, ok := hn.dir[line]; ok {
		return e.owner, e.sharers
	}
	return -1, 0
}

// receive accepts a transaction, serializing per line. The hn-dir phase
// opens at arrival time, so it includes any wait for the line's TBE
// (per-line transaction serialization) on top of the pipeline latency.
func (hn *HN) receive(t *txn) {
	now := hn.sys.Engine.Now()
	hn.sys.Obs.Phase(t.obsID, now, obs.PhaseHNDir)
	hn.sys.tracef("hn%d recv %s line %#x from core %d", hn.idx, t.kind, t.line, t.requestor)
	start := func() { hn.start(t) }
	if _, active := hn.busy[t.line]; active {
		hn.busy[t.line] = append(hn.busy[t.line], start)
		hn.sys.Fail(hn.sys.Check.ObserveBusy(now, hn.idx, len(hn.busy), len(hn.busy[t.line])))
		return
	}
	hn.busy[t.line] = nil
	hn.sys.Fail(hn.sys.Check.ObserveBusy(now, hn.idx, len(hn.busy), 0))
	start()
}

// release finishes the active transaction on a line and starts the next
// queued one, if any. When a sanitizer is attached and the line goes idle,
// the line is audited: with no transaction left in flight the caches and
// directory must agree on it.
func (hn *HN) release(line memory.Line) {
	q, active := hn.busy[line]
	if !active {
		hn.sys.Fail(check.Violatef(check.KindProtocol, hn.sys.Engine.Now(),
			"release of an idle line: no transaction is active").AtLine(line).AtHN(hn.idx))
		return
	}
	if len(q) == 0 {
		delete(hn.busy, line)
		if hn.sys.Check != nil {
			hn.sys.Check.CountReleaseAudit()
			hn.sys.Fail(hn.sys.auditLine(line))
		}
		return
	}
	hn.busy[line] = q[1:]
	q[0]()
}

func (hn *HN) entry(line memory.Line) *dirEntry {
	e, ok := hn.dir[line]
	if !ok {
		e = &dirEntry{owner: -1}
		hn.dir[line] = e
	}
	return e
}

func (hn *HN) dropIfEmpty(line memory.Line) {
	if e, ok := hn.dir[line]; ok && e.sharers == 0 {
		delete(hn.dir, line)
	}
}

// start dispatches a transaction after the directory pipeline latency.
func (hn *HN) start(t *txn) {
	hn.sys.Engine.ScheduleKind(hn.sys.Cfg.DirLatency, perf.KindHN, func() {
		switch t.kind {
		case txnReadShared:
			hn.Stats.ReadShared++
			hn.readShared(t)
		case txnReadUnique:
			hn.Stats.ReadUnique++
			hn.readUnique(t)
		case txnWriteBack:
			hn.Stats.WriteBacks++
			hn.writeBack(t)
		case txnAtomic:
			hn.Stats.Atomics++
			hn.atomic(t)
		}
	})
}

// snoopAll sends parallel snoops to every RN in the targets bitmask and
// calls cont once all responses arrive. anyDirty reports whether any
// snooped copy held dirty data; present is the mask of RNs that actually
// still held the line. parent is the observed transaction the snoops serve
// (its snoop phase covers the full round-trip fan-out); each individual
// snoop is additionally tracked as a ClassSnoop transaction of its own.
func (hn *HN) snoopAll(parent obs.TxnID, targets uint64, line memory.Line, invalidate bool, cont func(anyDirty bool, present uint64)) {
	n := bits.OnesCount64(targets)
	if n == 0 {
		cont(false, 0)
		return
	}
	hn.sys.Obs.Phase(parent, hn.sys.Engine.Now(), obs.PhaseSnoop)
	hn.sys.Obs.ProfileSnoop(line.Base(), n)
	pending := n
	anyDirty := false
	var present uint64
	for t := targets; t != 0; t &= t - 1 {
		core := bits.TrailingZeros64(t)
		rn := hn.sys.RNs[core]
		hn.Stats.SnoopsSent++
		var sid obs.TxnID
		if hn.sys.Obs != nil {
			sid = hn.sys.Obs.BeginTxn(hn.sys.Engine.Now(), obs.ClassSnoop, line.Base(), core)
		}
		hn.sys.send(hn.node, rn.node, noc.ControlFlits, func() {
			rn.handleSnoop(line, invalidate, func(hadCopy, dirty bool) {
				flits := noc.ControlFlits
				if dirty {
					flits = noc.DataFlits
					hn.Stats.DirtyForwards++
					hn.sys.Obs.ProfileSnoopForward(line.Base())
				}
				var jitter sim.Tick
				if hn.sys.snoopJitter != nil {
					jitter = hn.sys.snoopJitter(core, line)
				}
				hn.sys.sendDelayed(rn.node, hn.node, flits, jitter, func() {
					hn.sys.Obs.EndTxn(sid, hn.sys.Engine.Now())
					if hadCopy {
						present |= 1 << uint(core)
					}
					if dirty {
						anyDirty = true
					}
					pending--
					if pending == 0 {
						cont(anyDirty, present)
					}
				})
			})
		})
	}
}

// lineData resolves when the line's data is available at the HN: the AMO
// buffer, the LLC data array, or main memory (installing into the LLC on a
// memory fill). forAtomic selects AMO-buffer participation. obsID is the
// observed transaction waiting on the data: SRAM-served lines enter the
// hn-data phase, memory fills the hbm phase.
func (hn *HN) lineData(obsID obs.TxnID, line memory.Line, forAtomic bool) (ready sim.Tick) {
	now := hn.sys.Engine.Now()
	if forAtomic {
		if _, ok := hn.amoBuf.Lookup(uint64(line)); ok {
			hn.Stats.AMOBufHits++
			hn.sys.Obs.Phase(obsID, now, obs.PhaseHNData)
			return now + hn.sys.Cfg.AMOBufLatency
		}
		hn.Stats.AMOBufMisses++
	}
	if _, ok := hn.llc.Lookup(uint64(line)); ok {
		hn.Stats.LLCHits++
		hn.sys.Obs.Phase(obsID, now, obs.PhaseHNData)
		return now + hn.sys.Cfg.LLCDataLatency
	}
	hn.Stats.LLCMisses++
	hn.sys.Obs.Phase(obsID, now, obs.PhaseHBM)
	done := hn.sys.Mem.Read(line, now)
	hn.llcInsert(line, false)
	return done
}

// llcInsert caches a line in the LLC slice, writing back a dirty victim.
func (hn *HN) llcInsert(line memory.Line, dirty bool) {
	if e, ok := hn.llc.Peek(uint64(line)); ok {
		e.dirty = e.dirty || dirty
		return
	}
	vk, vv, ev := hn.llc.Insert(uint64(line), llcEntry{dirty: dirty})
	if ev && vv.dirty {
		hn.sys.Mem.Write(memory.Line(vk), hn.sys.Engine.Now())
	}
}

// respond sends the completing message of a fill transaction back to the
// requestor. The line stays blocked at the home node until the requestor's
// CompAck arrives after installing the fill — CHI's transaction-completion
// handshake, without which a subsequent transaction's snoop could reach
// the requestor before its fill and split ownership of the line.
func (hn *HN) respond(t *txn, granted memory.State, withData bool) {
	rn := hn.sys.RNs[t.requestor]
	flits := noc.ControlFlits
	if withData {
		flits = noc.DataFlits
	}
	hn.sys.Obs.Phase(t.obsID, hn.sys.Engine.Now(), obs.PhaseNoCResp)
	hn.sys.tracef("hn%d respond line %#x -> core %d %v", hn.idx, t.line, t.requestor, granted)
	hn.sys.send(hn.node, rn.node, flits, func() {
		rn.fillArrived(t.line, granted)
		hn.sys.send(rn.node, hn.node, noc.ControlFlits, func() { hn.release(t.line) })
	})
}

// readShared implements the CHI ReadShared flow: downgrade the owner if one
// exists, otherwise source data from LLC or memory. A sole reader is
// granted UniqueClean (CHI permits UC on ReadShared), enabling silent
// upgrades — this is what makes single-threaded near AMOs cheap.
func (hn *HN) readShared(t *txn) {
	e := hn.entry(t.line)
	rbit := uint64(1) << uint(t.requestor)
	if e.owner >= 0 && e.owner != t.requestor {
		owner := e.owner
		hn.snoopAll(t.obsID, 1<<uint(owner), t.line, false, func(dirty bool, present uint64) {
			if present == 0 {
				// The owner's copy evaporated (writeback in flight); fall
				// back to the memory path.
				e.sharers &^= 1 << uint(owner)
				e.owner = -1
				hn.readSharedFromHome(t, e, rbit)
				return
			}
			if !dirty {
				// UC downgraded to SC: nobody owns dirty data now.
				e.owner = -1
			}
			e.sharers |= rbit
			hn.respond(t, memory.SharedClean, true)
		})
		return
	}
	hn.readSharedFromHome(t, e, rbit)
}

// readSharedFromHome sources data from the LLC or memory when no remote
// owner needs snooping.
func (hn *HN) readSharedFromHome(t *txn, e *dirEntry, rbit uint64) {
	granted := memory.SharedClean
	if e.sharers&^rbit == 0 {
		granted = memory.UniqueClean
	}
	ready := hn.lineData(t.obsID, t.line, false)
	hn.sys.Engine.AtKind(ready, perf.KindHN, func() {
		e.sharers |= rbit
		if granted.Unique() {
			e.owner = t.requestor
			// Exclusive with respect to unique holders.
			hn.llc.Remove(uint64(t.line))
		}
		hn.respond(t, granted, true)
	})
}

// readUnique implements the CHI ReadUnique/CleanUnique flow: invalidate all
// other copies, grant the requestor exclusive ownership.
func (hn *HN) readUnique(t *txn) {
	e := hn.entry(t.line)
	rbit := uint64(1) << uint(t.requestor)
	targets := e.sharers &^ rbit
	hn.snoopAll(t.obsID, targets, t.line, true, func(anyDirty bool, _ uint64) {
		// Whether the requestor still holds its copy decides between an
		// upgrade (dataless response) and a full fill.
		stillHeld := t.hadCopy && e.sharers&rbit != 0
		e.owner = t.requestor
		e.sharers = rbit
		hn.llc.Remove(uint64(t.line))
		switch {
		case stillHeld:
			granted := memory.UniqueClean
			if t.hadDirty {
				granted = memory.UniqueDirty
			}
			hn.respond(t, granted, false)
		case anyDirty:
			// Dirty data migrates from the previous owner.
			hn.respond(t, memory.UniqueDirty, true)
		default:
			ready := hn.lineData(t.obsID, t.line, false)
			hn.sys.Engine.AtKind(ready, perf.KindHN, func() {
				hn.llc.Remove(uint64(t.line))
				hn.respond(t, memory.UniqueClean, true)
			})
		}
	})
}

// writeBack implements WriteBackFull/WriteEvictFull: the RN dropped its
// copy; cache the line at the LLC if no one else holds it.
func (hn *HN) writeBack(t *txn) {
	e := hn.entry(t.line)
	rbit := uint64(1) << uint(t.requestor)
	e.sharers &^= rbit
	if e.owner == t.requestor {
		e.owner = -1
	}
	if e.sharers == 0 {
		hn.llcInsert(t.line, t.hadDirty)
	}
	hn.dropIfEmpty(t.line)
	hn.sys.Obs.EndTxn(t.obsID, hn.sys.Engine.Now())
	hn.release(t.line)
}

// atomic implements the far AMO flow of Fig. 2: invalidate every copy
// (including, pathologically, the requestor's own unique copy), execute the
// operation at the home node's ALU, and answer with data (AtomicLoad) or an
// early acknowledgment (AtomicStore).
func (hn *HN) atomic(t *txn) {
	req := t.amoReq
	if t.amo.noReturn {
		hn.Stats.AtomicStores++
	} else {
		hn.Stats.AtomicLoads++
	}
	e := hn.entry(t.line)
	hn.snoopAll(t.obsID, e.sharers, t.line, true, func(anyDirty bool, _ uint64) {
		e.owner = -1
		e.sharers = 0
		hn.dropIfEmpty(t.line)
		rn := hn.sys.RNs[t.requestor]

		// The data fetch is off the requestor's critical path for a
		// no-return atomic (the ack below leaves immediately), so only
		// value-returning atomics attribute it as a phase.
		dataID := t.obsID
		if t.amo.noReturn {
			dataID = 0
		}
		var ready sim.Tick
		if anyDirty {
			ready = hn.sys.Engine.Now() // data arrived with the snoop response
		} else {
			ready = hn.lineData(dataID, t.line, true)
		}

		// AtomicStore completes for the requestor as soon as coherence is
		// resolved, before the ALU executes (Section III-B1). The observed
		// transaction ends at the acknowledgment, so the residual ALU work
		// shows up only in the "far-amo" occupancy span, not as a phase.
		if t.amo.noReturn {
			hn.sys.Obs.Phase(t.obsID, hn.sys.Engine.Now(), obs.PhaseNoCResp)
			hn.sys.send(hn.node, rn.node, noc.ControlFlits, func() {
				rn.complete(req, 0)
			})
		}
		start := ready
		if hn.aluFree > start {
			start = hn.aluFree
		}
		hn.aluFree = start + hn.sys.Cfg.FarAMOOccupancy
		// ALU queue wait plus occupancy: how long this far AMO held the HN.
		hn.sys.Obs.ProfileHNOccupancy(t.line.Base(), hn.aluFree-ready)
		if !t.amo.noReturn {
			hn.sys.Obs.Phase(t.obsID, start, obs.PhaseALU)
		}
		hn.sys.Obs.Span(obs.Track{Group: obs.TrackHN, ID: hn.idx}, "far-amo", start, hn.sys.Cfg.FarAMOOccupancy)
		execAt := start + hn.sys.Cfg.ALULatency
		hn.sys.Engine.AtKind(execAt, perf.KindHN, func() {
			old := hn.sys.Data.AMO(t.amo.op, t.amo.addr, t.amo.operand, t.amo.compare)
			hn.amoBuf.Insert(uint64(t.line), struct{}{})
			hn.llcInsert(t.line, true)
			if !t.amo.noReturn {
				hn.sys.Obs.Phase(t.obsID, hn.sys.Engine.Now(), obs.PhaseNoCResp)
				hn.sys.send(hn.node, rn.node, noc.ControlFlits, func() {
					rn.complete(req, old)
				})
			}
			hn.release(t.line)
		})
	})
}
