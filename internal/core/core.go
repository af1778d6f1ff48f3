// Package core implements the DynAMO paper's contribution: placement
// policies for atomic memory operations. It provides the five static
// policies of Table I (two existing in Neoverse hardware, three proposed by
// the paper) and the DynAMO dynamic predictors of Section V (metric-based
// and the two reuse-pattern variants), backed by the per-core set-associative
// AMO Metadata Table (AMT).
//
// Every policy implements chi.Policy. The coherence substrate consults the
// policy only when the line is not already held in Unique state — unique
// blocks always execute near, since a far AMO would force the home node to
// snoop the requestor itself (the pathological flow of Section II-B).
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"dynamo/internal/cache"
	"dynamo/internal/chi"
	"dynamo/internal/memory"
)

// AMTConfig sizes the AMO Metadata Table of the DynAMO predictors.
type AMTConfig struct {
	// Entries is the total entry count (paper default: 128).
	Entries int
	// Ways is the associativity (paper default: 4).
	Ways int
	// CounterMax is the saturation value of the reuse-confidence counter
	// (paper default: 32, i.e. a 5-bit counter).
	CounterMax int
}

// DefaultAMTConfig is the configuration the paper selects in Section VI-F.
func DefaultAMTConfig() AMTConfig {
	return AMTConfig{Entries: 128, Ways: 4, CounterMax: 32}
}

// Validate reports configuration errors.
func (c AMTConfig) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("core: bad AMT geometry %d entries / %d ways", c.Entries, c.Ways)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("core: AMT sets %d not a power of two", sets)
	}
	// A cache array's 2-byte set header indexes at most 32768 sets.
	if sets > 1<<15 {
		return fmt.Errorf("core: AMT sets %d exceed 32768", sets)
	}
	if c.CounterMax <= 0 {
		return fmt.Errorf("core: AMT counter max %d", c.CounterMax)
	}
	return nil
}

// AMTCost reports the hardware cost of an AMT per core, reproducing the
// Section VI-G estimate: 49 tag bits plus the reuse-confidence counter and
// the reuse bit per entry, padded to a power-of-two entry size.
type AMTCost struct {
	BitsPerEntry       int
	PaddedBitsPerEntry int
	Bytes              int
}

// CostOf computes the storage cost of cfg.
func CostOf(cfg AMTConfig) AMTCost {
	counterBits := bits.Len(uint(cfg.CounterMax - 1))
	raw := 49 + counterBits + 1 // tag + confidence + reuse bit
	padded := 1
	for padded < raw {
		padded <<= 1
	}
	return AMTCost{
		BitsPerEntry:       raw,
		PaddedBitsPerEntry: padded,
		Bytes:              cfg.Entries * padded / 8,
	}
}

// Builder constructs a policy for a system with the given core count,
// taking its AMTs from arrays (nil: new ones).
type Builder func(cores int, amt AMTConfig, arrays *cache.Arena) chi.Policy

var registry = map[string]Builder{
	"all-near":     func(int, AMTConfig, *cache.Arena) chi.Policy { return AllNear() },
	"unique-near":  func(int, AMTConfig, *cache.Arena) chi.Policy { return UniqueNear() },
	"present-near": func(int, AMTConfig, *cache.Arena) chi.Policy { return PresentNear() },
	"dirty-near":   func(int, AMTConfig, *cache.Arena) chi.Policy { return DirtyNear() },
	"shared-far":   func(int, AMTConfig, *cache.Arena) chi.Policy { return SharedFar() },
	"dynamo-metric": func(c int, a AMTConfig, arrays *cache.Arena) chi.Policy {
		return newMetric(c, a, arrays)
	},
	"dynamo-reuse-un": func(c int, a AMTConfig, arrays *cache.Arena) chi.Policy {
		return newReuse(c, a, FallbackUniqueNear, arrays)
	},
	"dynamo-reuse-pn": func(c int, a AMTConfig, arrays *cache.Arena) chi.Policy {
		return newReuse(c, a, FallbackPresentNear, arrays)
	},
}

// Names returns the registered policy names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StaticNames returns the five static policy names in Table I order.
func StaticNames() []string {
	return []string{"all-near", "unique-near", "present-near", "dirty-near", "shared-far"}
}

// DynamicNames returns the DynAMO predictor names in paper order.
func DynamicNames() []string {
	return []string{"dynamo-metric", "dynamo-reuse-un", "dynamo-reuse-pn"}
}

// ErrUnknownPolicy reports a policy name absent from the registry. It is
// re-exported at the package dynamo surface; match with errors.Is.
var ErrUnknownPolicy = errors.New("unknown policy")

// NewIn builds the named policy for a system with cores cores. It returns
// an error for unknown names or invalid AMT configurations. The policy's
// AMTs, if it has any, come from arrays, where a finished simulation's
// predictor handed them back (Recycle); nil arrays allocate them.
func NewIn(name string, cores int, amt AMTConfig, arrays *cache.Arena) (chi.Policy, error) {
	if err := Check(name, cores, amt); err != nil {
		return nil, err
	}
	return registry[name](cores, amt, arrays), nil
}

// Check returns the error NewIn would return for these arguments, without
// building the policy.
func Check(name string, cores int, amt AMTConfig) error {
	if _, ok := registry[name]; !ok {
		return fmt.Errorf("core: %w %q (have %v)", ErrUnknownPolicy, name, Names())
	}
	if err := amt.Validate(); err != nil {
		return err
	}
	if cores <= 0 {
		return fmt.Errorf("core: %d cores", cores)
	}
	return nil
}

// stateIndex maps a coherence state to its Table I column.
func stateIndex(st memory.State) int {
	switch st {
	case memory.UniqueClean:
		return 0
	case memory.UniqueDirty:
		return 1
	case memory.SharedClean:
		return 2
	case memory.SharedDirty:
		return 3
	case memory.Invalid:
		return 4
	}
	panic(fmt.Sprintf("core: unknown state %v", st))
}
