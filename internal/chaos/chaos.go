// Package chaos is the deterministic fault injector: it perturbs the
// simulator's timing — never its functional behavior — so tests can assert
// that every workload computes the same answer under adversarial event
// orderings and that the protocol sanitizer stays clean while they do.
//
// All perturbations are protocol-legal by construction:
//
//   - NoC link-latency jitter delays a message's delivery after its link
//     reservations are made, reordering arrivals without forging messages.
//   - HBM channel skew adds a per-channel static offset plus per-access
//     jitter to completion times, never reordering within a channel's
//     occupancy bookkeeping.
//   - Snoop-response reordering delays individual snoop responses on the
//     way back to the home node; the fan-out pending counter is
//     order-insensitive, so any arrival order is legal.
//   - AMT eviction pressure ages the predictor's table faster than the
//     machine's own aging tick, forcing evictions and placement flips —
//     placement is a performance decision, so any choice is correct.
//
// Every delay is drawn from a splitmix64 stream derived from the
// perturbation seed, so a (config, workload seed, chaos seed) triple
// replays exactly.
package chaos

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"dynamo/internal/chi"
	"dynamo/internal/memory"
	"dynamo/internal/perf"
	"dynamo/internal/sim"
)

// MaxLevel is the strongest perturbation intensity.
const MaxLevel = 3

// Normalize applies the one defaulting rule every entry point shares: a
// seed without a level runs level 1, and a level without a seed runs
// seed 1. Both zero leave the run unperturbed.
func Normalize(seed int64, level int) (int64, int) {
	if seed != 0 && level == 0 {
		level = 1
	}
	if level > 0 && seed == 0 {
		seed = 1
	}
	return seed, level
}

// Injector perturbs one machine. The machine builds and attaches one when
// its configuration enables chaos (machine.Config.ChaosSeed/ChaosLevel).
// An Injector is single-use, like the machine it attaches to: its random
// streams advance as the run consumes them.
type Injector struct {
	seed  int64
	level int

	mesh  stream
	mem   stream
	snoop stream
	skew  []sim.Tick // lazily built per-channel HBM offsets
}

// New builds an injector. level ranges 0 (inert) to MaxLevel; seed selects
// the perturbation schedule.
func New(seed int64, level int) (*Injector, error) {
	if level < 0 || level > MaxLevel {
		return nil, fmt.Errorf("chaos: level %d out of range 0..%d", level, MaxLevel)
	}
	return &Injector{
		seed:  seed,
		level: level,
		mesh:  newStream(seed, 0x6d657368), // "mesh"
		mem:   newStream(seed, 0x6d656d00), // "mem"
		snoop: newStream(seed, 0x736e6f6f), // "snoo"
	}, nil
}

// Seed returns the perturbation seed.
func (in *Injector) Seed() int64 { return in.seed }

// Level returns the perturbation intensity.
func (in *Injector) Level() int { return in.level }

// amtPressurePeriod is the base interval between forced predictor aging
// ticks; level divides it.
const amtPressurePeriod = 40_000

// Attach wires the injector's perturbation hooks into a built system,
// before its first event. A nil or level-0 injector attaches nothing, so
// the unperturbed run stays byte-for-byte identical to one that never
// imported this package.
func (in *Injector) Attach(sys *chi.System, policy chi.Policy) {
	if in == nil || in.level == 0 {
		return
	}
	lvl := sim.Tick(in.level)
	sys.Mesh.SetJitter(func(src, dst, flits int) sim.Tick {
		return sim.Tick(in.mesh.below(uint64(3*lvl) + 1))
	})
	channels := sys.Mem.Channels()
	in.skew = make([]sim.Tick, channels)
	skewStream := newStream(in.seed, 0x736b6577) // "skew"
	for ch := range in.skew {
		in.skew[ch] = sim.Tick(skewStream.below(uint64(8*lvl) + 1))
	}
	sys.Mem.SetJitter(func(ch int) sim.Tick {
		return in.skew[ch] + sim.Tick(in.mem.below(uint64(2*lvl)+1))
	})
	sys.SetSnoopJitter(func(core int, line memory.Line) sim.Tick {
		return sim.Tick(in.snoop.below(uint64(4*lvl) + 1))
	})
	if a, ok := policy.(interface{ Age() }); ok {
		period := sim.Tick(amtPressurePeriod / in.level)
		eng := sys.Engine
		var tick func()
		tick = func() {
			if eng.Pending() == 0 {
				// The run has drained; let the queue empty so the machine's
				// end-of-run accounting sees a quiescent engine.
				return
			}
			a.Age()
			eng.ScheduleKind(period, perf.KindTick, tick)
		}
		eng.ScheduleKind(period, perf.KindTick, tick)
	}
}

// State is the injector's checkpoint image: its configuration plus the
// position of every perturbation stream. A checkpoint of a chaotic run
// pins every stream, so a restore (which rebuilds an identically seeded
// injector and replays) can verify it reproduced the same perturbation
// schedule.
func (in *Injector) State() any {
	return snapshot{
		Seed:  in.seed,
		Level: in.level,
		Mesh:  in.mesh.x,
		Mem:   in.mem.x,
		Snoop: in.snoop.x,
		Skew:  in.skew,
	}
}

// snapshot is the serializable injector state (see State).
type snapshot struct {
	Seed  int64      `json:"seed"`
	Level int        `json:"level"`
	Mesh  uint64     `json:"mesh"`
	Mem   uint64     `json:"mem"`
	Snoop uint64     `json:"snoop"`
	Skew  []sim.Tick `json:"skew,omitempty"`
}

// stream is a splitmix64 pseudo-random stream: tiny, seedable, and with no
// global state, so each perturbation point consumes its own independent
// sequence.
type stream struct {
	x uint64
}

func newStream(seed int64, salt uint64) stream {
	return stream{x: uint64(seed)*0x9e3779b97f4a7c15 ^ salt}
}

func (s *stream) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// below returns a value in [0, n). n must be positive; the modulo bias is
// irrelevant for jitter draws.
func (s *stream) below(n uint64) uint64 {
	return s.next() % n
}

// Digest canonically hashes a run's functional result: every non-zero
// word of the store, sorted by address. Two runs computed the same answer
// iff their digests match — the metamorphic invariant chaos testing
// asserts across perturbation seeds.
func Digest(data *memory.Store) string {
	h := sha256.New()
	var buf [16]byte
	for _, w := range data.Words() {
		binary.LittleEndian.PutUint64(buf[:8], uint64(w.Addr))
		binary.LittleEndian.PutUint64(buf[8:], w.Value)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
