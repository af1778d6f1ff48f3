package chi

import (
	"fmt"

	"dynamo/internal/cache"
	"dynamo/internal/check"
	"dynamo/internal/memory"
	"dynamo/internal/noc"
	"dynamo/internal/obs"
	"dynamo/internal/perf"
	"dynamo/internal/sim"
)

// ReqKind is the class of a memory request issued by a core.
type ReqKind uint8

const (
	// Load reads a 64-bit word and returns it.
	Load ReqKind = iota
	// Store writes a 64-bit word.
	Store
	// AMO performs an atomic read-modify-write.
	AMO
)

// String names the request kind.
func (k ReqKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case AMO:
		return "amo"
	}
	return fmt.Sprintf("ReqKind(%d)", uint8(k))
}

// Request is one memory operation submitted to a request node. Done, if
// non-nil, runs at completion time with the value produced (the loaded word
// for Load, the prior memory value for AMO, 0 for Store).
//
// No node reads a request once its Done has run, so the issuer may reuse
// the record from then on, even from inside Done: it rewrites the fields
// and submits the record again. A core keeps a fixed set of records this
// way and allocates none per operation.
type Request struct {
	Kind    ReqKind
	Addr    memory.Addr
	Op      memory.AMOOp
	Operand uint64
	Compare uint64
	// NoReturn marks an AMO with store semantics (CHI AtomicStore): the
	// requestor needs only an acknowledgment and the core may commit early.
	NoReturn bool
	Done     func(value uint64)

	issued sim.Tick
	// obs tracks the request on the probe bus (0 when observability is off
	// or the request was generated internally, e.g. by the prefetcher).
	obs obs.TxnID
	// rn is the node the request was last submitted to; l1Stage and
	// l2Stage run its lookup stages and replyStage the arrival of a far
	// atomic's acknowledgment or data reply, which carries value. They are
	// bound on the record's first Access, so that scheduling a stage
	// allocates nothing.
	rn                           *RN
	value                        uint64
	l1Stage, l2Stage, replyStage func()
}

// lookupL1 is the stage after the L1 tag/data access.
func (req *Request) lookupL1() { req.rn.lookup(req, true) }

// probeL2 is the stage after the L2 access.
func (req *Request) probeL2() { req.rn.afterL2(req, memory.LineOf(req.Addr)) }

// reply is the stage at which a far atomic's reply reaches the requestor.
func (req *Request) reply() { req.rn.complete(req, req.value) }

// RNStats counts request-node activity.
type RNStats struct {
	Loads, Stores, AMOs                uint64
	AMOLoadOps, AMOStoreOps            uint64 // return-value vs no-return split
	AMONearLocal, AMONearTxn, AMOFar   uint64
	L1Hits, L1Misses, L2Hits, L2Misses uint64
	SnoopsReceived, Invalidations      uint64
	Downgrades, WriteBacks             uint64
	Prefetches                         uint64
	AMOLatencySum                      uint64
	LoadLatencySum                     uint64
}

type l1Entry struct {
	state memory.State
}

type l2Entry struct {
	state memory.State
}

// mshr is one outstanding fill and the requests waiting on it. A retired
// MSHR goes back on the System's free list with its reqs emptied, keeping
// their capacity.
type mshr struct {
	byAMO bool
	reqs  []*Request
}

// RN is a request node: one core's private L1D and L2 plus the coherence
// machinery that talks to the home nodes. The paper's placement decision
// happens here.
type RN struct {
	sys   *System
	id    int
	node  int
	l1    *cache.SetAssoc[l1Entry]
	l2    *cache.SetAssoc[l2Entry]
	mshrs map[memory.Line]*mshr
	Stats RNStats

	lastMissLine memory.Line
	missStreak   int
}

func newRN(s *System, id, node int) *RN {
	return &RN{
		sys:   s,
		id:    id,
		node:  node,
		l1:    cache.NewSetAssocIn[l1Entry](s.arena.Arrays(), s.Cfg.L1Sets, s.Cfg.L1Ways),
		l2:    cache.NewSetAssocIn[l2Entry](s.arena.Arrays(), s.Cfg.L2Sets, s.Cfg.L2Ways),
		mshrs: make(map[memory.Line]*mshr),
	}
}

// ID returns the core index of this RN.
func (rn *RN) ID() int { return rn.id }

// State returns the line's current state in this RN's private hierarchy
// (L1 or L2), without perturbing LRU order.
func (rn *RN) State(line memory.Line) memory.State {
	if e, ok := rn.l1.Peek(uint64(line)); ok {
		return e.state
	}
	if e, ok := rn.l2.Peek(uint64(line)); ok {
		return e.state
	}
	return memory.Invalid
}

// forEachLine visits every cached line and its state.
func (rn *RN) forEachLine(fn func(memory.Line, memory.State)) {
	rn.l1.Range(func(k uint64, e *l1Entry) bool {
		fn(memory.Line(k), e.state)
		return true
	})
	rn.l2.Range(func(k uint64, e *l2Entry) bool {
		fn(memory.Line(k), e.state)
		return true
	})
}

// Access submits a memory request. It must be called from a simulation
// event; completion is reported through req.Done.
func (rn *RN) Access(req *Request) {
	if req.l1Stage == nil {
		req.l1Stage, req.l2Stage, req.replyStage = req.lookupL1, req.probeL2, req.reply
	}
	req.rn = rn
	req.issued = rn.sys.Engine.Now()
	switch req.Kind {
	case Load:
		rn.Stats.Loads++
	case Store:
		rn.Stats.Stores++
	case AMO:
		rn.Stats.AMOs++
		if req.NoReturn {
			rn.Stats.AMOStoreOps++
		} else {
			rn.Stats.AMOLoadOps++
		}
	}
	if rn.sys.Obs != nil {
		class := obs.ClassLoad
		switch req.Kind {
		case Store:
			class = obs.ClassStore
		case AMO:
			// Provisional: reclassified to near/far once placement is known.
			class = obs.ClassAMO
		}
		req.obs = rn.sys.Obs.BeginTxn(req.issued, class, req.Addr, rn.id)
	}
	rn.sys.Engine.ScheduleKind(rn.sys.Cfg.L1Latency, perf.KindRN, req.l1Stage)
}

// lookup runs after the L1 tag/data access. chargeL2 is false for replayed
// requests, which already paid their lookup latency.
func (rn *RN) lookup(req *Request, chargeL2 bool) {
	line := memory.LineOf(req.Addr)
	if e, ok := rn.l1.Lookup(uint64(line)); ok {
		rn.Stats.L1Hits++
		rn.serve(req, line, e.state, true)
		return
	}
	rn.Stats.L1Misses++
	if m, ok := rn.mshrs[line]; ok {
		// A fill for this line is in flight; merge.
		rn.sys.Obs.Phase(req.obs, rn.sys.Engine.Now(), obs.PhaseMSHRWait)
		m.reqs = append(m.reqs, req)
		return
	}
	if !chargeL2 {
		rn.afterL2(req, line)
		return
	}
	rn.sys.Engine.ScheduleKind(rn.sys.Cfg.L2Latency, perf.KindRN, req.l2Stage)
}

// afterL2 runs once the L2 has been probed.
func (rn *RN) afterL2(req *Request, line memory.Line) {
	if m, ok := rn.mshrs[line]; ok {
		rn.sys.Obs.Phase(req.obs, rn.sys.Engine.Now(), obs.PhaseMSHRWait)
		m.reqs = append(m.reqs, req)
		return
	}
	if e, ok := rn.l2.Lookup(uint64(line)); ok {
		rn.Stats.L2Hits++
		st := e.state
		if req.Kind == AMO && !st.Unique() {
			if rn.decide(line, st) == Far {
				// Far AMO leaves the (shared) L2 copy in place; the HN's
				// snoop invalidates it as part of the atomic transaction.
				rn.issueFarAMO(req, line)
				return
			}
			// Near: promote and upgrade, without consulting the policy a
			// second time from serve.
			rn.l2.Remove(uint64(line))
			rn.installL1(line, st, false)
			rn.requestUnique(req, line, st, true)
			return
		}
		// Promote to L1 and serve there.
		rn.l2.Remove(uint64(line))
		rn.installL1(line, st, false)
		rn.serve(req, line, st, true)
		return
	}
	rn.Stats.L2Misses++
	rn.miss(req, line)
}

// serve handles a request whose line is present in the L1 with state st.
// countHit controls whether the access feeds the predictor's reuse bit.
func (rn *RN) serve(req *Request, line memory.Line, st memory.State, countHit bool) {
	switch req.Kind {
	case Load:
		if countHit {
			rn.sys.Policy.OnHit(rn.id, line)
		}
		rn.complete(req, rn.sys.Data.Load(req.Addr))
	case Store:
		if countHit {
			rn.sys.Policy.OnHit(rn.id, line)
		}
		if st.Unique() {
			rn.setL1State(line, memory.UniqueDirty)
			rn.sys.Data.StoreWord(req.Addr, req.Operand)
			rn.complete(req, 0)
			return
		}
		rn.requestUnique(req, line, st, false)
	case AMO:
		if st.Unique() {
			// countHit is false exactly when this AMO initiated the fill
			// that granted uniqueness; it was already counted as a
			// transaction-backed near AMO.
			if countHit {
				rn.sys.Policy.OnHit(rn.id, line)
				rn.Stats.AMONearLocal++
			}
			rn.finishNearAMO(req, line)
			return
		}
		if rn.decide(line, st) == Far {
			rn.issueFarAMO(req, line)
			return
		}
		rn.requestUnique(req, line, st, true)
	}
}

// decide asks the policy for a placement; unique states never reach here.
func (rn *RN) decide(line memory.Line, st memory.State) Placement {
	return rn.sys.Policy.Decide(rn.id, line, st)
}

// finishNearAMO applies an AMO locally on a unique line.
func (rn *RN) finishNearAMO(req *Request, line memory.Line) {
	rn.sys.Obs.Reclass(req.obs, obs.ClassNearAMO)
	rn.sys.Obs.ProfileAMO(line.Base(), false)
	old := rn.sys.Data.AMO(req.Op, req.Addr, req.Operand, req.Compare)
	rn.setL1State(line, memory.UniqueDirty)
	rn.sys.Policy.OnNearComplete(rn.id, line)
	rn.complete(req, old)
}

// miss handles a request whose line is absent from the private hierarchy.
func (rn *RN) miss(req *Request, line memory.Line) {
	switch req.Kind {
	case Load:
		rn.startFill(req, line, false, txnReadShared, memory.Invalid)
		rn.maybePrefetch(line)
	case Store:
		rn.startFill(req, line, false, txnReadUnique, memory.Invalid)
	case AMO:
		if rn.decide(line, memory.Invalid) == Far {
			rn.issueFarAMO(req, line)
			return
		}
		rn.Stats.AMONearTxn++
		rn.sys.Obs.Reclass(req.obs, obs.ClassNearAMO)
		rn.startFill(req, line, true, txnReadUnique, memory.Invalid)
	}
}

// requestUnique upgrades a present, non-unique line to unique state on
// behalf of req (a store or a near AMO). If an upgrade or fill is already
// in flight for the line — e.g. two stores replayed from the same fill —
// the request merges into it instead of issuing a duplicate transaction.
func (rn *RN) requestUnique(req *Request, line memory.Line, st memory.State, byAMO bool) {
	if byAMO {
		rn.sys.Obs.Reclass(req.obs, obs.ClassNearAMO)
	}
	if m, ok := rn.mshrs[line]; ok {
		rn.sys.Obs.Phase(req.obs, rn.sys.Engine.Now(), obs.PhaseMSHRWait)
		m.reqs = append(m.reqs, req)
		return
	}
	if byAMO {
		rn.Stats.AMONearTxn++
	}
	rn.startFill(req, line, byAMO, txnReadUnique, st)
}

// startFill allocates an MSHR and sends a fill transaction to the home
// node. heldState is the current private copy's state (Invalid on a miss).
func (rn *RN) startFill(req *Request, line memory.Line, byAMO bool, kind txnKind, heldState memory.State) {
	m := rn.sys.freeMSHRs.pop()
	if m == nil {
		m = new(mshr)
	}
	m.byAMO = byAMO
	m.reqs = append(m.reqs, req)
	rn.mshrs[line] = m
	rn.sys.Fail(rn.sys.Check.ObserveMSHRs(rn.sys.Engine.Now(), rn.id, len(rn.mshrs)))
	rn.sys.Obs.Phase(req.obs, rn.sys.Engine.Now(), obs.PhaseNoCReq)
	t := rn.newTxn(kind, line, req.obs)
	t.hadCopy, t.hadDirty = heldState.Present(), heldState.Dirty()
	rn.sys.send(rn.node, t.hn.node, noc.ControlFlits, t.arrive)
}

// maybePrefetch implements the stride-1 L1D prefetcher: two sequential
// demand load misses arm it, and it fetches the next PrefetchDegree lines
// shared (skipping lines already present or in flight).
func (rn *RN) maybePrefetch(line memory.Line) {
	degree := rn.sys.Cfg.PrefetchDegree
	if degree <= 0 {
		return
	}
	switch line {
	case rn.lastMissLine + 1:
		rn.missStreak++
	case rn.lastMissLine:
		// Repeated miss on one line; leave the streak alone.
	default:
		rn.missStreak = 0
	}
	rn.lastMissLine = line
	if rn.missStreak < 2 {
		return
	}
	for d := 1; d <= degree; d++ {
		target := line + memory.Line(d)
		if rn.State(target) != memory.Invalid {
			continue
		}
		if _, busy := rn.mshrs[target]; busy {
			continue
		}
		rn.Stats.Prefetches++
		req := &Request{Kind: Load, Addr: target.Base(), issued: rn.sys.Engine.Now()}
		rn.startFill(req, target, false, txnReadShared, memory.Invalid)
	}
}

// issueFarAMO ships the AMO to the home node. Far atomics are not tracked
// in the MSHRs: they do not fill the line, and CHI lets them pipeline.
func (rn *RN) issueFarAMO(req *Request, line memory.Line) {
	rn.Stats.AMOFar++
	rn.sys.Obs.Reclass(req.obs, obs.ClassFarAMO)
	rn.sys.Obs.ProfileAMO(line.Base(), true)
	rn.sys.Obs.Phase(req.obs, rn.sys.Engine.Now(), obs.PhaseNoCReq)
	t := rn.newTxn(txnAtomic, line, req.obs)
	t.amoReq = req
	t.amo = farAMO{op: req.Op, addr: req.Addr, operand: req.Operand, compare: req.Compare, noReturn: req.NoReturn}
	rn.sys.send(rn.node, t.hn.node, noc.ControlFlits, t.arrive)
}

// fillArrived installs a granted line and replays the requests that were
// waiting on it.
func (rn *RN) fillArrived(line memory.Line, granted memory.State) {
	m, ok := rn.mshrs[line]
	if !ok {
		rn.sys.Fail(check.Violatef(check.KindProtocol, rn.sys.Engine.Now(),
			"fill granting %v arrived with no outstanding MSHR", granted).AtLine(line).AtCore(rn.id))
		return
	}
	if rn.sys.Trail != nil {
		rn.sys.tracef("core %d fill line %#x granted %v (%d waiters)", rn.id, line, granted, len(m.reqs))
	}
	delete(rn.mshrs, line)
	if e, ok := rn.l1.Peek(uint64(line)); ok {
		// Upgrade of a still-present copy.
		e.state = granted
	} else {
		// If the copy was demoted to L2 meanwhile, promote it.
		rn.l2.Remove(uint64(line))
		rn.installL1(line, granted, m.byAMO)
	}
	for i, r := range m.reqs {
		// The initiating request must not set its own reuse bit; replayed
		// requests count as genuine reuse.
		if i == 0 {
			if e, ok := rn.l1.Lookup(uint64(line)); ok {
				rn.serve(r, line, e.state, false)
			} else {
				rn.lookup(r, false) // displaced already (pathological); retry
			}
		} else {
			rn.lookup(r, false)
		}
	}
	// Only now may the MSHR be reused: a replay above can start a new
	// fill for this very line.
	clear(m.reqs)
	m.reqs = m.reqs[:0]
	rn.sys.freeMSHRs.push(m)
}

// installL1 inserts a line into the L1, demoting the victim to L2 and
// writing back the L2 victim if one falls out.
func (rn *RN) installL1(line memory.Line, st memory.State, byAMO bool) {
	vk, vv, ev := rn.l1.Insert(uint64(line), l1Entry{state: st})
	rn.sys.Policy.OnFill(rn.id, line, byAMO)
	if ev {
		victim := memory.Line(vk)
		rn.sys.Policy.OnEvict(rn.id, victim)
		rn.installL2(victim, vv.state)
	}
}

// installL2 inserts a line demoted from L1, evicting to the home node if
// the set is full.
func (rn *RN) installL2(line memory.Line, st memory.State) {
	vk, vv, ev := rn.l2.Insert(uint64(line), l2Entry{state: st})
	if ev {
		rn.writeBack(memory.Line(vk), vv.state)
	}
}

// writeBack notifies the home node that this RN dropped its copy (CHI
// WriteBackFull / WriteEvictFull). The RN does not wait for completion.
func (rn *RN) writeBack(line memory.Line, st memory.State) {
	rn.Stats.WriteBacks++
	if rn.sys.Trail != nil {
		rn.sys.tracef("core %d writeback line %#x %v", rn.id, line, st)
	}
	flits := noc.ControlFlits
	if st.Dirty() {
		flits = noc.DataFlits
	}
	var id obs.TxnID
	if rn.sys.Obs != nil {
		now := rn.sys.Engine.Now()
		id = rn.sys.Obs.BeginTxn(now, obs.ClassWriteBack, line.Base(), rn.id)
		rn.sys.Obs.Phase(id, now, obs.PhaseNoCReq)
	}
	t := rn.newTxn(txnWriteBack, line, id)
	t.hadDirty = st.Dirty()
	rn.sys.send(rn.node, t.hn.node, flits, t.arrive)
}

// setL1State rewrites the state of a line known to be in L1.
func (rn *RN) setL1State(line memory.Line, st memory.State) {
	if e, ok := rn.l1.Peek(uint64(line)); ok {
		e.state = st
		return
	}
	rn.sys.Fail(check.Violatef(check.KindProtocol, rn.sys.Engine.Now(),
		"state rewrite to %v on a line absent from the L1", st).AtLine(line).AtCore(rn.id))
}

// handleSnoop is a snoop's arrival at this RN: the RN applies it after an
// L1 tag lookup delay (lookupSnoop).
func (rn *RN) handleSnoop(sn *snoop) {
	rn.Stats.SnoopsReceived++
	rn.sys.Engine.ScheduleKind(rn.sys.Cfg.L1Latency, perf.KindRN, sn.lookup)
}

// lookupSnoop applies a snoop to this RN's copy of the line, if any, and
// sends the response to the home node: with data when the copy was dirty.
func (rn *RN) lookupSnoop(sn *snoop) {
	line := sn.t.line
	if e, ok := rn.l1.Peek(uint64(line)); ok {
		if next := rn.applySnoop(sn, e.state); next == memory.Invalid {
			rn.l1.Remove(uint64(line))
		} else {
			e.state = next
		}
	} else if e, ok := rn.l2.Peek(uint64(line)); ok {
		if next := rn.applySnoop(sn, e.state); next == memory.Invalid {
			rn.l2.Remove(uint64(line))
		} else {
			e.state = next
		}
	}
	hn := sn.t.hn
	flits := noc.ControlFlits
	if sn.dirty {
		flits = noc.DataFlits
		hn.Stats.DirtyForwards++
		rn.sys.Obs.ProfileSnoopForward(line.Base())
	}
	var jitter sim.Tick
	if rn.sys.snoopJitter != nil {
		jitter = rn.sys.snoopJitter(rn.id, line)
	}
	rn.sys.sendDelayed(rn.node, hn.node, flits, jitter, sn.back)
}

// applySnoop returns the state a copy in state st moves to under the snoop
// and records in sn that the copy was there and whether it was dirty. An
// invalidating snoop (SnpUnique) drops the copy; otherwise (SnpShared) it
// is downgraded to a shared state.
func (rn *RN) applySnoop(sn *snoop, st memory.State) memory.State {
	sn.hadCopy = true
	sn.dirty = st.Dirty()
	if sn.invalidate {
		rn.Stats.Invalidations++
		rn.sys.Policy.OnInvalidate(rn.id, sn.t.line)
		return memory.Invalid
	}
	rn.Stats.Downgrades++
	switch st {
	case memory.UniqueDirty:
		return memory.SharedDirty
	case memory.UniqueClean:
		return memory.SharedClean
	default:
		return st
	}
}

// complete finishes a request and updates latency accounting.
func (rn *RN) complete(req *Request, value uint64) {
	lat := uint64(rn.sys.Engine.Now() - req.issued)
	switch req.Kind {
	case AMO:
		rn.Stats.AMOLatencySum += lat
	case Load:
		rn.Stats.LoadLatencySum += lat
	}
	rn.sys.Obs.EndTxn(req.obs, rn.sys.Engine.Now())
	if req.Done != nil {
		req.Done(value)
	}
}
