// Package chi implements the cache-coherent interconnect substrate: request
// nodes (cores' private L1D+L2 hierarchies), home nodes (directory slice +
// exclusive LLC slice + far-AMO ALU with its AMO buffer) and the AMBA 5
// CHI-style transaction flows between them, including both near and far
// atomic transactions as described in Fig. 2 of the DynAMO paper.
//
// The protocol is intentionally race-reduced compared to a full CHI
// implementation: the home node serializes transactions per cache line
// (modeling CHI's per-line TBE blocking), and each request node keeps at
// most one outstanding *fill* transaction per line (far atomics are
// fire-and-forget and pipeline freely). Functional data lives in a global
// memory.Store updated at the serialization point of each write, so no
// update can ever be lost regardless of message timing.
package chi

import (
	"fmt"

	"dynamo/internal/cache"
	"dynamo/internal/check"
	"dynamo/internal/hbm"
	"dynamo/internal/memory"
	"dynamo/internal/noc"
	"dynamo/internal/obs"
	"dynamo/internal/perf"
	"dynamo/internal/sim"
)

// Placement says where an AMO executes.
type Placement uint8

const (
	// Near executes the AMO in the requesting core's L1D after acquiring
	// the line in unique state.
	Near Placement = iota
	// Far ships the AMO to the home node's ALU.
	Far
)

// String returns "near" or "far".
func (p Placement) String() string {
	if p == Near {
		return "near"
	}
	return "far"
}

// Policy decides AMO placement and receives the L1D events the DynAMO
// predictor learns from. Implementations live in internal/core. All methods
// are invoked from simulation events, i.e. single-threaded.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Decide picks a placement for an AMO issued by core to line, whose
	// current state in the core's private hierarchy is st. It is only
	// consulted when st is not Unique (unique blocks always execute near).
	Decide(core int, line memory.Line, st memory.State) Placement
	// OnNearComplete records a near AMO completed by core on line.
	OnNearComplete(core int, line memory.Line)
	// OnFill records a line installed into core's L1D; byAMO is true when a
	// near AMO caused the fill.
	OnFill(core int, line memory.Line, byAMO bool)
	// OnHit records any L1-present access to line other than the access
	// that installed it.
	OnHit(core int, line memory.Line)
	// OnEvict records a capacity eviction of line from core's L1D.
	OnEvict(core int, line memory.Line)
	// OnInvalidate records a snoop invalidation of line at core.
	OnInvalidate(core int, line memory.Line)
}

// Config sizes the coherent system. The zero value is invalid; start from
// the machine package's DefaultConfig.
type Config struct {
	Cores    int
	HNSlices int

	L1Sets, L1Ways   int
	L2Sets, L2Ways   int
	LLCSets, LLCWays int // per slice
	AMOBufEntries    int // fully associative, per slice

	L1Latency      sim.Tick // L1D data array access
	L2Latency      sim.Tick // L2 access
	DirLatency     sim.Tick // HN directory/tag pipeline
	LLCDataLatency sim.Tick // LLC data SRAM access
	ALULatency     sim.Tick // far-AMO ALU operation
	AMOBufLatency  sim.Tick // AMO buffer access (bypasses LLC SRAM)
	// FarAMOOccupancy is the per-operation serialization of the HN atomic
	// pipeline: back-to-back far AMOs to one slice are spaced by this many
	// cycles.
	FarAMOOccupancy sim.Tick
	// PrefetchDegree enables a stride-1 L1D prefetcher (Table II lists a
	// stride prefetcher): after two sequential load misses, the next
	// PrefetchDegree lines are fetched shared. Zero disables prefetching,
	// the default the evaluation is calibrated against.
	PrefetchDegree int

	Mesh noc.Config
	Mem  hbm.Config

	// Obs, when non-nil, receives transaction lifecycle events from every
	// component (see package obs). A nil bus costs one nil check per probe.
	Obs *obs.Bus
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.HNSlices <= 0 {
		return fmt.Errorf("chi: %d cores / %d HN slices", c.Cores, c.HNSlices)
	}
	if c.Cores > 64 {
		return fmt.Errorf("chi: %d cores exceed the 64-bit sharer bitmask", c.Cores)
	}
	if c.HNSlices&(c.HNSlices-1) != 0 {
		return fmt.Errorf("chi: HN slices %d not a power of two", c.HNSlices)
	}
	for _, g := range [][2]int{{c.L1Sets, c.L1Ways}, {c.L2Sets, c.L2Ways}, {c.LLCSets, c.LLCWays}} {
		if g[0] <= 0 || g[1] <= 0 || g[0]&(g[0]-1) != 0 {
			return fmt.Errorf("chi: bad cache geometry %dx%d", g[0], g[1])
		}
		// A cache array's 2-byte set header indexes at most 32768 sets.
		if g[0] > 1<<15 {
			return fmt.Errorf("chi: cache geometry %dx%d exceeds 32768 sets", g[0], g[1])
		}
	}
	if c.AMOBufEntries <= 0 {
		return fmt.Errorf("chi: AMO buffer needs at least one entry")
	}
	if c.PrefetchDegree < 0 || c.PrefetchDegree > 16 {
		return fmt.Errorf("chi: prefetch degree %d out of range", c.PrefetchDegree)
	}
	if c.L1Latency == 0 || c.L2Latency == 0 || c.LLCDataLatency == 0 {
		return fmt.Errorf("chi: zero cache latency")
	}
	if err := c.Mesh.Validate(); err != nil {
		return err
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if c.Mesh.Width*c.Mesh.Height < c.Cores+c.HNSlices {
		return fmt.Errorf("chi: mesh %dx%d too small for %d RNs + %d HNs",
			c.Mesh.Width, c.Mesh.Height, c.Cores, c.HNSlices)
	}
	return nil
}

// System is the assembled coherent machine.
type System struct {
	Cfg    Config
	Engine *sim.Engine
	Mesh   *noc.Mesh
	Mem    *hbm.Memory
	Data   *memory.Store
	Policy Policy
	Obs    *obs.Bus
	RNs    []*RN
	HNs    []*HN

	// Check is the attached sanitizer (nil when checking is off); Trail
	// records recent protocol events for violation context; Violation
	// holds the first invariant failure, after which the engine stops.
	// See sanitize.go and package check.
	Check     *check.Checker
	Trail     *check.Trail
	Violation *check.Violation
	// snoopJitter, when non-nil, adds chaos delay to each snoop response
	// (see SetSnoopJitter).
	snoopJitter func(core int, line memory.Line) sim.Tick

	// Records no message or line uses any more, kept for reuse so that the
	// coherence path allocates nothing in steady state. They belong to this
	// System alone.
	freeTxns   freeList[txn]
	freeSnoops freeList[snoop]
	freeMSHRs  freeList[mshr]
	freeDirs   freeList[dirEntry]

	// arena is where Recycle hands the system's storage; nil when the
	// system was built without one or has handed it back.
	arena *Arena
}

// Arena is the storage one simulation slot (a sweep runner's or a fleet
// worker's) recycles across the systems it builds, one at a time: cache
// arrays, the policy's included, and the functional memory image. A
// system built from an arena takes what the last one handed back and
// hands its own back on Recycle. Like the record free lists, an arena is
// never package-level: each belongs to one slot, so concurrent
// simulations share nothing. The zero value is empty and ready to use.
type Arena struct {
	arrays cache.Arena
	data   *memory.Store
}

// Arrays returns the arena's cache arrays, from which the policy of a
// system built from a takes its tables (nil for a nil arena).
func (a *Arena) Arrays() *cache.Arena {
	if a == nil {
		return nil
	}
	return &a.arrays
}

// freeList is a stack of records kept for reuse.
type freeList[T any] []*T

// pop takes a record off the list, or returns nil if it is empty.
func (l *freeList[T]) pop() *T {
	n := len(*l)
	if n == 0 {
		return nil
	}
	r := (*l)[n-1]
	*l = (*l)[:n-1]
	return r
}

// push puts a record on the list.
func (l *freeList[T]) push(r *T) { *l = append(*l, r) }

// NewSystemIn wires cores, home nodes, interconnect and memory. RNs occupy
// mesh nodes where (x+y) is even in row-major order; HN slices occupy odd
// nodes, mirroring the distributed-slice placement of CMN-style meshes.
// Its cache arrays and memory image come from a, where the last system
// built from it handed them back; a nil arena allocates them. Build the policy from a.Arrays() first: the
// system then drops whatever storage of the arena it did not take, so an
// arena holds nothing while its system runs.
func NewSystemIn(cfg Config, policy Policy, a *Arena) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("chi: nil policy")
	}
	mesh, err := noc.New(cfg.Mesh)
	if err != nil {
		return nil, err
	}
	mem, err := hbm.New(cfg.Mem)
	if err != nil {
		return nil, err
	}
	mesh.AttachObs(cfg.Obs)
	mem.AttachObs(cfg.Obs)
	s := &System{
		Cfg:    cfg,
		Engine: sim.NewEngine(),
		Mesh:   mesh,
		Mem:    mem,
		Policy: policy,
		Obs:    cfg.Obs,
		arena:  a,
	}
	if a != nil && a.data != nil {
		s.Data, a.data = a.data, nil
	} else {
		s.Data = memory.NewStore()
	}
	var even, odd []int
	for id := 0; id < mesh.Nodes(); id++ {
		x, y := mesh.XY(id)
		if (x+y)%2 == 0 {
			even = append(even, id)
		} else {
			odd = append(odd, id)
		}
	}
	if len(even) < cfg.Cores || len(odd) < cfg.HNSlices {
		return nil, fmt.Errorf("chi: checkerboard placement cannot fit %d RNs + %d HNs on %dx%d",
			cfg.Cores, cfg.HNSlices, cfg.Mesh.Width, cfg.Mesh.Height)
	}
	for i := 0; i < cfg.Cores; i++ {
		s.RNs = append(s.RNs, newRN(s, i, even[i]))
	}
	for i := 0; i < cfg.HNSlices; i++ {
		s.HNs = append(s.HNs, newHN(s, i, odd[i]))
	}
	if a != nil {
		a.arrays.Trim()
	}
	return s, nil
}

// Recycle hands the system's cache arrays, its policy's tables (when the
// policy has a Recycle method, as the DynAMO predictors do) and its
// memory image back to the arena it was built from, cleared, for the
// next system built from it; a system built without an arena keeps them.
// The system and its policy must not be used afterwards, and whatever
// must outlive them (results, checkpoints, the validator's reading of
// Data) must have been taken before. A second call does nothing.
func (s *System) Recycle() {
	a := s.arena
	if a == nil {
		return
	}
	s.arena = nil
	if p, ok := s.Policy.(interface{ Recycle(*cache.Arena) }); ok {
		p.Recycle(&a.arrays)
	}
	for _, rn := range s.RNs {
		rn.l1.Recycle(&a.arrays)
		rn.l2.Recycle(&a.arrays)
	}
	for _, hn := range s.HNs {
		hn.llc.Recycle(&a.arrays)
		hn.amoBuf.Recycle(&a.arrays)
	}
	s.Data.Reset()
	a.data = s.Data
}

// HomeOf returns the HN slice owning a line (address interleaved).
func (s *System) HomeOf(line memory.Line) *HN {
	return s.HNs[int(uint64(line)&uint64(s.Cfg.HNSlices-1))]
}

// send delivers a message of the given flit count between mesh nodes and
// runs fn on arrival.
func (s *System) send(from, to, flits int, fn func()) {
	s.sendDelayed(from, to, flits, 0, fn)
}

// sendDelayed is send with extra delay added after the mesh arrival time;
// the chaos injector uses it to reorder snoop responses without occupying
// mesh links for the extra cycles.
func (s *System) sendDelayed(from, to, flits int, extra sim.Tick, fn func()) {
	arrival := s.Mesh.Send(from, to, flits, s.Engine.Now())
	s.Engine.AtKind(arrival+extra, perf.KindNoC, fn)
}

// CheckCoherence verifies the global single-writer/multi-reader invariant:
// for every line, at most one RN holds it Unique, and a Unique holder
// excludes all other copies. It also cross-checks the directory against the
// RN arrays for lines with no in-flight transactions. Tests call it; it
// returns the first violation found.
func (s *System) CheckCoherence() error {
	type holder struct {
		core int
		st   memory.State
	}
	holders := make(map[memory.Line][]holder)
	for _, rn := range s.RNs {
		rn.forEachLine(func(line memory.Line, st memory.State) {
			holders[line] = append(holders[line], holder{rn.id, st})
		})
	}
	for line, hs := range holders {
		uniques, sds := 0, 0
		for _, h := range hs {
			if h.st.Unique() {
				uniques++
			}
			if h.st == memory.SharedDirty {
				sds++
			}
		}
		if uniques > 1 {
			return fmt.Errorf("chi: line %#x held unique by %d cores", line, uniques)
		}
		if uniques == 1 && len(hs) > 1 {
			return fmt.Errorf("chi: line %#x unique at one core but %d copies exist", line, len(hs))
		}
		if sds > 1 {
			return fmt.Errorf("chi: line %#x has %d SharedDirty owners", line, sds)
		}
	}
	return nil
}
