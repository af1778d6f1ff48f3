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

// txn is a request-node message to a home node and, once it arrives, the
// home node's record of the transaction. Records come from the System's
// free list and go back once the transaction has released its line: at
// the CompAck, at the end of a writeback, or at a far atomic's ALU step.
// Every hop schedules one of the record's stages, bound when the record
// was made, so a message allocates nothing.
type txn struct {
	hn        *HN
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

	// next links the transactions waiting for the line (see waitQueue).
	next *txn
	// e is the line's directory entry while the flow runs, owner the
	// owner a ReadShared snooped, and granted the state the response
	// grants.
	e       *dirEntry
	owner   int
	granted memory.State
	// pending counts the snoops still unanswered; anyDirty and present
	// fold in their responses (see snoopAll).
	pending  int
	anyDirty bool
	present  uint64

	txnStages
}

// txnStages are a transaction's events, one per hop.
type txnStages struct {
	arrive     func() // the request reaches the home node
	dispatch   func() // the directory pipeline has looked the line up
	sharedData func() // a ReadShared's data is ready at the home node
	uniqueData func() // a ReadUnique's data is ready at the home node
	fill       func() // the response reaches the requestor
	ack        func() // the requestor's CompAck reaches the home node
	execute    func() // a far atomic's ALU step
}

// newTxn returns a transaction record from this RN to the line's home
// node, making one only when the free list is empty. The caller sets any
// other field and sends the record's arrive stage.
func (rn *RN) newTxn(kind txnKind, line memory.Line, obsID obs.TxnID) *txn {
	t := rn.sys.freeTxns.pop()
	if t == nil {
		t = new(txn)
		t.arrive = func() { t.hn.receive(t) }
		t.dispatch = func() { t.hn.dispatch(t) }
		t.sharedData = func() { t.hn.sharedDataReady(t) }
		t.uniqueData = func() { t.hn.uniqueDataReady(t) }
		t.fill = func() { t.hn.filled(t) }
		t.ack = func() { t.hn.acked(t) }
		t.execute = func() { t.hn.execute(t) }
	}
	t.hn = rn.sys.HomeOf(line)
	t.kind, t.line, t.requestor, t.obsID = kind, line, rn.id, obsID
	return t
}

// freeTxn clears a finished transaction and puts it back on the free list.
func (s *System) freeTxn(t *txn) {
	*t = txn{txnStages: t.txnStages}
	s.freeTxns.push(t)
}

// waitQueue is the FIFO of transactions waiting for a blocked line, linked
// through txn.next.
type waitQueue struct {
	head, tail *txn
	n          int
}

func (q *waitQueue) push(t *txn) {
	if q.tail == nil {
		q.head = t
	} else {
		q.tail.next = t
	}
	q.tail = t
	q.n++
}

func (q *waitQueue) pop() *txn {
	t := q.head
	q.head, t.next = t.next, nil
	if q.head == nil {
		q.tail = nil
	}
	q.n--
	return t
}

// snoop is one snoop of a transaction's fan-out and the snooped RN's
// response. Records come from the System's free list and go back once the
// response is folded into the transaction.
type snoop struct {
	t          *txn
	rn         *RN
	invalidate bool
	sid        obs.TxnID
	// hadCopy and dirty are the response: whether the RN held the line and
	// whether its copy was dirty.
	hadCopy, dirty bool

	atRN   func() // the snoop reaches the RN
	lookup func() // the RN's tag lookup is done: apply the snoop and respond
	back   func() // the response reaches the home node
}

// newSnoop returns a cleared snoop record, making one only when the free
// list is empty.
func (s *System) newSnoop() *snoop {
	if sn := s.freeSnoops.pop(); sn != nil {
		return sn
	}
	sn := new(snoop)
	sn.atRN = func() { sn.rn.handleSnoop(sn) }
	sn.lookup = func() { sn.rn.lookupSnoop(sn) }
	sn.back = func() { sn.t.hn.snoopBack(sn) }
	return sn
}

// freeSnoop clears an answered snoop and puts it back on the free list.
func (s *System) freeSnoop(sn *snoop) {
	*sn = snoop{atRN: sn.atRN, lookup: sn.lookup, back: sn.back}
	s.freeSnoops.push(sn)
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
// which one (if any) is responsible for dirty data. An entry dropped from
// the directory goes back on the System's free list.
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
	// busy marks lines with an active transaction and queues the
	// transactions waiting for them (CHI TBE blocking).
	busy    map[memory.Line]waitQueue
	aluFree sim.Tick
	Stats   HNStats
}

func newHN(s *System, idx, node int) *HN {
	return &HN{
		sys:    s,
		idx:    idx,
		node:   node,
		dir:    make(map[memory.Line]*dirEntry),
		llc:    cache.NewSetAssocIn[llcEntry](s.arena.Arrays(), s.Cfg.LLCSets, s.Cfg.LLCWays),
		amoBuf: cache.NewSetAssocIn[struct{}](s.arena.Arrays(), 1, s.Cfg.AMOBufEntries),
		busy:   make(map[memory.Line]waitQueue),
	}
}

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
	if hn.sys.Trail != nil {
		hn.sys.tracef("hn%d recv %s line %#x from core %d", hn.idx, t.kind, t.line, t.requestor)
	}
	if q, active := hn.busy[t.line]; active {
		q.push(t)
		hn.busy[t.line] = q
		hn.sys.Fail(hn.sys.Check.ObserveBusy(now, hn.idx, len(hn.busy), q.n))
		return
	}
	hn.busy[t.line] = waitQueue{}
	hn.sys.Fail(hn.sys.Check.ObserveBusy(now, hn.idx, len(hn.busy), 0))
	hn.start(t)
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
	if q.n == 0 {
		delete(hn.busy, line)
		if hn.sys.Check != nil {
			hn.sys.Check.CountReleaseAudit()
			hn.sys.Fail(hn.sys.auditLine(line))
		}
		return
	}
	t := q.pop()
	hn.busy[line] = q
	hn.start(t)
}

func (hn *HN) entry(line memory.Line) *dirEntry {
	e, ok := hn.dir[line]
	if !ok {
		if e = hn.sys.freeDirs.pop(); e == nil {
			e = new(dirEntry)
		}
		*e = dirEntry{owner: -1}
		hn.dir[line] = e
	}
	return e
}

// dropIfEmpty drops a line nobody holds from the directory. Only the
// line's active transaction holds its entry, and none uses it afterwards,
// so the entry is free for reuse at once.
func (hn *HN) dropIfEmpty(line memory.Line) {
	if e, ok := hn.dir[line]; ok && e.sharers == 0 {
		delete(hn.dir, line)
		hn.sys.freeDirs.push(e)
	}
}

// start dispatches a transaction after the directory pipeline latency.
func (hn *HN) start(t *txn) {
	hn.sys.Engine.ScheduleKind(hn.sys.Cfg.DirLatency, perf.KindHN, t.dispatch)
}

// dispatch runs a transaction's flow once the directory has looked its
// line up.
func (hn *HN) dispatch(t *txn) {
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
}

// snoopAll sends parallel snoops to every RN in the targets bitmask and
// continues t (see snooped) once all responses arrive, with t.anyDirty
// reporting whether any snooped copy held dirty data and t.present the
// mask of RNs that actually still held the line. t's snoop phase covers
// the full round-trip fan-out; each individual snoop is additionally
// tracked as a ClassSnoop transaction of its own.
func (hn *HN) snoopAll(t *txn, targets uint64, invalidate bool) {
	n := bits.OnesCount64(targets)
	t.pending, t.anyDirty, t.present = n, false, 0
	if n == 0 {
		hn.snooped(t)
		return
	}
	now := hn.sys.Engine.Now()
	hn.sys.Obs.Phase(t.obsID, now, obs.PhaseSnoop)
	hn.sys.Obs.ProfileSnoop(t.line.Base(), n)
	for m := targets; m != 0; m &= m - 1 {
		core := bits.TrailingZeros64(m)
		rn := hn.sys.RNs[core]
		hn.Stats.SnoopsSent++
		sn := hn.sys.newSnoop()
		sn.t, sn.rn, sn.invalidate = t, rn, invalidate
		if hn.sys.Obs != nil {
			sn.sid = hn.sys.Obs.BeginTxn(now, obs.ClassSnoop, t.line.Base(), core)
		}
		hn.sys.send(hn.node, rn.node, noc.ControlFlits, sn.atRN)
	}
}

// snoopBack folds a snoop response into its transaction, and continues the
// transaction once the last response is in.
func (hn *HN) snoopBack(sn *snoop) {
	t := sn.t
	hn.sys.Obs.EndTxn(sn.sid, hn.sys.Engine.Now())
	if sn.hadCopy {
		t.present |= 1 << uint(sn.rn.id)
	}
	if sn.dirty {
		t.anyDirty = true
	}
	hn.sys.freeSnoop(sn)
	if t.pending--; t.pending == 0 {
		hn.snooped(t)
	}
}

// snooped continues a transaction whose snoops have all answered.
func (hn *HN) snooped(t *txn) {
	switch t.kind {
	case txnReadShared:
		hn.readSharedSnooped(t)
	case txnReadUnique:
		hn.readUniqueSnooped(t)
	case txnAtomic:
		hn.atomicSnooped(t)
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
	if hn.sys.Trail != nil {
		hn.sys.tracef("hn%d respond line %#x -> core %d %v", hn.idx, t.line, t.requestor, granted)
	}
	t.granted = granted
	hn.sys.send(hn.node, rn.node, flits, t.fill)
}

// filled runs when a response reaches its requestor: the requestor
// installs the line and answers with its CompAck.
func (hn *HN) filled(t *txn) {
	rn := hn.sys.RNs[t.requestor]
	rn.fillArrived(t.line, t.granted)
	hn.sys.send(rn.node, hn.node, noc.ControlFlits, t.ack)
}

// acked runs when a CompAck arrives: the transaction is over.
func (hn *HN) acked(t *txn) {
	hn.release(t.line)
	hn.sys.freeTxn(t)
}

// readShared implements the CHI ReadShared flow: downgrade the owner if one
// exists, otherwise source data from LLC or memory. A sole reader is
// granted UniqueClean (CHI permits UC on ReadShared), enabling silent
// upgrades — this is what makes single-threaded near AMOs cheap.
func (hn *HN) readShared(t *txn) {
	t.e = hn.entry(t.line)
	if owner := t.e.owner; owner >= 0 && owner != t.requestor {
		t.owner = owner
		hn.snoopAll(t, 1<<uint(owner), false)
		return
	}
	hn.readSharedFromHome(t)
}

// readSharedSnooped continues a ReadShared once the owner has answered.
func (hn *HN) readSharedSnooped(t *txn) {
	e := t.e
	if t.present == 0 {
		// The owner's copy evaporated (writeback in flight); fall back to
		// the memory path.
		e.sharers &^= 1 << uint(t.owner)
		e.owner = -1
		hn.readSharedFromHome(t)
		return
	}
	if !t.anyDirty {
		// UC downgraded to SC: nobody owns dirty data now.
		e.owner = -1
	}
	e.sharers |= 1 << uint(t.requestor)
	hn.respond(t, memory.SharedClean, true)
}

// readSharedFromHome sources data from the LLC or memory when no remote
// owner needs snooping.
func (hn *HN) readSharedFromHome(t *txn) {
	t.granted = memory.SharedClean
	if t.e.sharers&^(1<<uint(t.requestor)) == 0 {
		t.granted = memory.UniqueClean
	}
	ready := hn.lineData(t.obsID, t.line, false)
	hn.sys.Engine.AtKind(ready, perf.KindHN, t.sharedData)
}

// sharedDataReady answers a ReadShared served from home once the data is
// ready.
func (hn *HN) sharedDataReady(t *txn) {
	t.e.sharers |= 1 << uint(t.requestor)
	if t.granted.Unique() {
		t.e.owner = t.requestor
		// Exclusive with respect to unique holders.
		hn.llc.Remove(uint64(t.line))
	}
	hn.respond(t, t.granted, true)
}

// readUnique implements the CHI ReadUnique/CleanUnique flow: invalidate all
// other copies, grant the requestor exclusive ownership.
func (hn *HN) readUnique(t *txn) {
	t.e = hn.entry(t.line)
	hn.snoopAll(t, t.e.sharers&^(1<<uint(t.requestor)), true)
}

// readUniqueSnooped continues a ReadUnique once every other copy is gone.
func (hn *HN) readUniqueSnooped(t *txn) {
	e := t.e
	rbit := uint64(1) << uint(t.requestor)
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
	case t.anyDirty:
		// Dirty data migrates from the previous owner.
		hn.respond(t, memory.UniqueDirty, true)
	default:
		ready := hn.lineData(t.obsID, t.line, false)
		hn.sys.Engine.AtKind(ready, perf.KindHN, t.uniqueData)
	}
}

// uniqueDataReady answers a ReadUnique served from home once the data is
// ready.
func (hn *HN) uniqueDataReady(t *txn) {
	hn.llc.Remove(uint64(t.line))
	hn.respond(t, memory.UniqueClean, true)
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
	hn.sys.freeTxn(t)
}

// atomic implements the far AMO flow of Fig. 2: invalidate every copy
// (including, pathologically, the requestor's own unique copy), execute the
// operation at the home node's ALU, and answer with data (AtomicLoad) or an
// early acknowledgment (AtomicStore).
func (hn *HN) atomic(t *txn) {
	if t.amo.noReturn {
		hn.Stats.AtomicStores++
	} else {
		hn.Stats.AtomicLoads++
	}
	t.e = hn.entry(t.line)
	hn.snoopAll(t, t.e.sharers, true)
}

// atomicSnooped continues a far atomic once every copy is gone.
func (hn *HN) atomicSnooped(t *txn) {
	t.e.owner = -1
	t.e.sharers = 0
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
	if t.anyDirty {
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
		t.amoReq.value = 0
		hn.sys.send(hn.node, rn.node, noc.ControlFlits, t.amoReq.replyStage)
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
	hn.sys.Engine.AtKind(start+hn.sys.Cfg.ALULatency, perf.KindHN, t.execute)
}

// execute is a far atomic's ALU step. A value-returning atomic's reply
// carries the old value on its request; the request of a no-return one
// may already be reused, so only the copied payload is read.
func (hn *HN) execute(t *txn) {
	old := hn.sys.Data.AMO(t.amo.op, t.amo.addr, t.amo.operand, t.amo.compare)
	hn.amoBuf.Insert(uint64(t.line), struct{}{})
	hn.llcInsert(t.line, true)
	if !t.amo.noReturn {
		hn.sys.Obs.Phase(t.obsID, hn.sys.Engine.Now(), obs.PhaseNoCResp)
		t.amoReq.value = old
		hn.sys.send(hn.node, hn.sys.RNs[t.requestor].node, noc.ControlFlits, t.amoReq.replyStage)
	}
	hn.release(t.line)
	hn.sys.freeTxn(t)
}
