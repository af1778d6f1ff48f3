// Package cache implements generic set-associative lookup structures with
// true-LRU replacement. The same structure backs the L1D/L2 tag arrays, the
// LLC slices, the home-node AMO buffer and the DynAMO AMO Metadata Table.
package cache

import (
	"fmt"
	"math/bits"
)

// way is one way of a set: a tag and its value.
type way[V any] struct {
	tag   uint64
	value V
}

// SetAssoc is a set-associative array mapping a uint64 key (typically a
// cache-line number) to a value of type V. Keys are split into set index
// (low bits) and tag (high bits). Replacement is true LRU within a set.
type SetAssoc[V any] struct {
	sets     int
	ways     int
	setShift uint
	// data holds a block for every set that has been inserted into, in
	// first-touch order: a count entry, whose tag is the number of the
	// set's valid ways, then the set's ways, the valid ones first in LRU
	// order (index 0 = most recently used). Keeping the count in the block
	// means a set costs no allocation beyond its block's. hdr holds one more
	// than each set's block number (0 until the set's first Insert), so a
	// Table II LLC slice's header is 4 KiB. hdr is allocated by the first
	// Insert and a set's block by its own first Insert: a simulated job
	// fills a small share of a Table II machine's caches, so an array never
	// written costs only its header and a written one only the sets it
	// reached.
	data      []way[V]
	hdr       []uint16
	evictions uint64
	hits      uint64
	misses    uint64
}

// maxSets is the most sets an array can index: its header holds each
// set's block number plus one in 16 bits.
const maxSets = 1 << 15

// NewSetAssoc builds an array with the given number of sets (a power of two
// no larger than 32768) and associativity.
func NewSetAssoc[V any](sets, ways int) *SetAssoc[V] {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry %dx%d", sets, ways))
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets %d is not a power of two", sets))
	}
	if sets > maxSets {
		panic(fmt.Sprintf("cache: %d sets exceed the limit of %d", sets, maxSets))
	}
	return &SetAssoc[V]{
		sets:     sets,
		ways:     ways,
		setShift: uint(bits.TrailingZeros(uint(sets))),
	}
}

// Sets returns the number of sets.
func (c *SetAssoc[V]) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc[V]) Ways() int { return c.ways }

// Capacity returns sets*ways.
func (c *SetAssoc[V]) Capacity() int { return c.sets * c.ways }

// Stats returns cumulative hits, misses and evictions.
func (c *SetAssoc[V]) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

func (c *SetAssoc[V]) index(key uint64) (set int, tag uint64) {
	return int(key & uint64(c.sets-1)), key >> c.setShift
}

// block returns the position in data of set's count entry, or -1 before
// the set's first Insert.
func (c *SetAssoc[V]) block(set int) int {
	if c.hdr == nil || c.hdr[set] == 0 {
		return -1
	}
	return (int(c.hdr[set]) - 1) * (c.ways + 1)
}

// valid returns the valid ways of set in LRU order, with capacity for the
// whole set; it is empty before the set's first Insert.
func (c *SetAssoc[V]) valid(set int) []way[V] {
	b := c.block(set)
	if b < 0 {
		return nil
	}
	return c.data[b+1 : b+1+int(c.data[b].tag) : b+1+c.ways]
}

// find returns the position of tag among the ways s, or -1.
func find[V any](s []way[V], tag uint64) int {
	for i := range s {
		if s[i].tag == tag {
			return i
		}
	}
	return -1
}

// touch moves way i of s to the MRU position.
func touch[V any](s []way[V], i int) {
	if i == 0 {
		return
	}
	w := s[i]
	copy(s[1:i+1], s[0:i])
	s[0] = w
}

// Lookup returns the value for key and promotes it to MRU. Callers mutate
// entries through the returned pointer, which is valid only until the next
// call on the array: a later Lookup or Insert shifts the set's ways, and an
// Insert that gives a set its ways may move every set's.
func (c *SetAssoc[V]) Lookup(key uint64) (*V, bool) {
	set, tag := c.index(key)
	s := c.valid(set)
	if i := find(s, tag); i >= 0 {
		c.hits++
		touch(s, i)
		return &s[0].value, true
	}
	c.misses++
	return nil, false
}

// Peek returns the value for key without updating LRU order or hit/miss
// statistics. The pointer is valid until the next call on the array, as
// for Lookup.
func (c *SetAssoc[V]) Peek(key uint64) (*V, bool) {
	set, tag := c.index(key)
	s := c.valid(set)
	if i := find(s, tag); i >= 0 {
		return &s[i].value, true
	}
	return nil, false
}

// Contains reports presence without perturbing any state.
func (c *SetAssoc[V]) Contains(key uint64) bool {
	_, ok := c.Peek(key)
	return ok
}

// Insert adds key with value v as MRU. If the set is full, the LRU way is
// evicted and returned with evicted=true. Inserting an existing key replaces
// its value and promotes it.
func (c *SetAssoc[V]) Insert(key uint64, v V) (victimKey uint64, victim V, evicted bool) {
	set, tag := c.index(key)
	if c.hdr == nil {
		c.hdr = make([]uint16, c.sets)
	}
	if c.hdr[set] == 0 {
		c.data = append(c.data, make([]way[V], c.ways+1)...)
		c.hdr[set] = uint16(len(c.data) / (c.ways + 1))
	}
	s := c.valid(set)
	if i := find(s, tag); i >= 0 {
		s[i].value = v
		touch(s, i)
		return 0, victim, false
	}
	if n := len(s); n < c.ways {
		c.data[c.block(set)].tag++
		s = s[:n+1]
	} else {
		// Evict LRU (last position).
		victimKey = s[n-1].tag<<c.setShift | uint64(set)
		victim = s[n-1].value
		evicted = true
		c.evictions++
	}
	copy(s[1:], s[0:len(s)-1])
	s[0] = way[V]{tag: tag, value: v}
	return victimKey, victim, evicted
}

// Remove deletes key if present and returns its value.
func (c *SetAssoc[V]) Remove(key uint64) (V, bool) {
	set, tag := c.index(key)
	s := c.valid(set)
	if i := find(s, tag); i >= 0 {
		v := s[i].value
		copy(s[i:], s[i+1:])
		c.data[c.block(set)].tag--
		return v, true
	}
	var zero V
	return zero, false
}

// Victim returns the key that Insert(key, ...) would evict, if any, without
// modifying the array.
func (c *SetAssoc[V]) Victim(key uint64) (victimKey uint64, wouldEvict bool) {
	set, tag := c.index(key)
	s := c.valid(set)
	if len(s) < c.ways || find(s, tag) >= 0 {
		return 0, false
	}
	return s[len(s)-1].tag<<c.setShift | uint64(set), true
}

// Len returns the number of valid entries across all sets.
func (c *SetAssoc[V]) Len() int {
	n := 0
	for b := 0; b < len(c.data); b += c.ways + 1 {
		n += int(c.data[b].tag)
	}
	return n
}

// Range calls fn for every (key, value) pair until fn returns false.
// Iteration order is set-major then LRU order; it does not modify LRU state.
func (c *SetAssoc[V]) Range(fn func(key uint64, v *V) bool) {
	for set := range c.hdr {
		s := c.valid(set)
		for i := range s {
			key := s[i].tag<<c.setShift | uint64(set)
			if !fn(key, &s[i].value) {
				return
			}
		}
	}
}

// Arena keeps the arrays that finished simulations hand back, so that a
// later array of the same element type and geometry reuses one: its
// header table, its blocks and the array itself. An arena belongs to one
// simulation slot (a sweep runner's or a fleet worker's) and serves one
// simulation at a time; it is not safe for concurrent use, and nothing in
// this package keeps one, so concurrent simulations share no storage.
type Arena struct {
	spare map[geometry][]any // *SetAssoc[V] for any V, each cleared
}

// geometry is an array's shape, the first key a handed-back array is
// matched by; the element type is the second.
type geometry struct{ sets, ways int }

// NewSetAssocIn returns a sets x ways array: one that a holds with this
// element type and geometry, or else a new one from NewSetAssoc. Either
// way it starts with every set empty and its counters at zero. A nil
// arena always builds a new array.
func NewSetAssocIn[V any](a *Arena, sets, ways int) *SetAssoc[V] {
	if a != nil {
		g := geometry{sets, ways}
		s := a.spare[g]
		for i := len(s) - 1; i >= 0; i-- {
			if c, ok := s[i].(*SetAssoc[V]); ok {
				last := len(s) - 1
				s[i], s[last] = s[last], nil
				a.spare[g] = s[:last]
				return c
			}
		}
	}
	return NewSetAssoc[V](sets, ways)
}

// Recycle clears c and hands it to a for a later NewSetAssocIn; c must
// not be used afterwards. Clearing zeroes the header table (2 bytes a
// set) and the counters and empties the backing slice, keeping its
// capacity: Insert zeroes each block as it hands the block to a set, so
// no way of the last simulation is ever read again.
func (c *SetAssoc[V]) Recycle(a *Arena) {
	clear(c.hdr)
	c.data = c.data[:0]
	c.hits, c.misses, c.evictions = 0, 0, 0
	if a.spare == nil {
		a.spare = make(map[geometry][]any)
	}
	g := geometry{c.sets, c.ways}
	a.spare[g] = append(a.spare[g], c)
}

// Trim drops every array that a holds, so that the collector can take
// them. A simulation built from a calls it once it has taken its arrays:
// an arena then holds no storage while its simulation runs, and between
// simulations only the arrays the last one handed back.
func (a *Arena) Trim() {
	for g, s := range a.spare {
		clear(s)
		a.spare[g] = s[:0]
	}
}
