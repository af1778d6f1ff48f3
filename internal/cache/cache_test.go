package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestInsertLookup(t *testing.T) {
	c := NewSetAssoc[int](4, 2)
	c.Insert(0, 100)
	c.Insert(4, 104) // same set (4 sets), different tag
	if v, ok := c.Lookup(0); !ok || *v != 100 {
		t.Fatalf("Lookup(0) = %v,%v", v, ok)
	}
	if v, ok := c.Lookup(4); !ok || *v != 104 {
		t.Fatalf("Lookup(4) = %v,%v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewSetAssoc[int](1, 2)
	c.Insert(1, 1)
	c.Insert(2, 2)
	c.Lookup(1) // 1 becomes MRU, 2 is LRU
	vk, vv, ev := c.Insert(3, 3)
	if !ev || vk != 2 || vv != 2 {
		t.Fatalf("evicted (%d,%d,%v), want (2,2,true)", vk, vv, ev)
	}
	if c.Contains(2) {
		t.Fatal("evicted key still present")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Fatal("survivors missing")
	}
}

func TestVictimPrediction(t *testing.T) {
	c := NewSetAssoc[int](1, 2)
	if _, would := c.Victim(1); would {
		t.Fatal("empty set predicted eviction")
	}
	c.Insert(1, 1)
	c.Insert(2, 2)
	if _, would := c.Victim(1); would {
		t.Fatal("hit predicted eviction")
	}
	vk, would := c.Victim(3)
	if !would || vk != 1 {
		t.Fatalf("Victim(3) = (%d,%v), want (1,true)", vk, would)
	}
	// Victim must not perturb state.
	gotK, _, ev := c.Insert(3, 3)
	if !ev || gotK != vk {
		t.Fatalf("actual eviction %d != predicted %d", gotK, vk)
	}
}

func TestInsertExistingReplaces(t *testing.T) {
	c := NewSetAssoc[int](2, 2)
	c.Insert(6, 1)
	_, _, ev := c.Insert(6, 2)
	if ev {
		t.Fatal("re-insert evicted")
	}
	if v, _ := c.Peek(6); *v != 2 {
		t.Fatalf("value = %d, want 2", *v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestRemove(t *testing.T) {
	c := NewSetAssoc[string](2, 2)
	c.Insert(10, "a")
	if v, ok := c.Remove(10); !ok || v != "a" {
		t.Fatalf("Remove = (%q,%v)", v, ok)
	}
	if _, ok := c.Remove(10); ok {
		t.Fatal("double remove succeeded")
	}
	if c.Len() != 0 {
		t.Fatal("Len != 0 after remove")
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := NewSetAssoc[int](1, 2)
	c.Insert(1, 1)
	c.Insert(2, 2) // LRU order: 2, 1
	c.Peek(1)      // must NOT promote 1
	vk, _, ev := c.Insert(3, 3)
	if !ev || vk != 1 {
		t.Fatalf("Peek promoted: evicted %d, want 1", vk)
	}
}

func TestMutationThroughPointer(t *testing.T) {
	c := NewSetAssoc[int](2, 2)
	c.Insert(5, 7)
	p, _ := c.Lookup(5)
	*p = 99
	if v, _ := c.Peek(5); *v != 99 {
		t.Fatalf("mutation lost: %d", *v)
	}
}

func TestStatsCounting(t *testing.T) {
	c := NewSetAssoc[int](1, 1)
	c.Lookup(1) // miss
	c.Insert(1, 1)
	c.Lookup(1)    // hit
	c.Insert(2, 2) // evicts 1
	h, m, e := c.Stats()
	if h != 1 || m != 1 || e != 1 {
		t.Fatalf("stats = (%d,%d,%d), want (1,1,1)", h, m, e)
	}
}

func TestRange(t *testing.T) {
	c := NewSetAssoc[int](4, 4)
	keys := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	for _, k := range keys {
		c.Insert(k, int(k)*10)
	}
	seen := map[uint64]int{}
	c.Range(func(k uint64, v *int) bool {
		seen[k] = *v
		return true
	})
	if len(seen) != len(keys) {
		t.Fatalf("Range visited %d entries, want %d", len(seen), len(keys))
	}
	for _, k := range keys {
		if seen[k] != int(k)*10 {
			t.Fatalf("seen[%d] = %d", k, seen[k])
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, g := range []struct {
		sets, ways int
		msg        string
	}{
		{0, 1, "invalid geometry"},
		{1, 0, "invalid geometry"},
		{3, 2, "not a power of two"},
		{-4, 4, "invalid geometry"},
		{1 << 16, 4, "limit of 32768"},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), g.msg) {
					t.Errorf("geometry %dx%d: panic %v, want one mentioning %q", g.sets, g.ways, r, g.msg)
				}
			}()
			NewSetAssoc[int](g.sets, g.ways)
		}()
	}
	// The largest array the header can index holds a block in every set,
	// the last one touched numbered 32767.
	const sets = 1 << 15
	c := NewSetAssoc[int](sets, 1)
	for k := sets - 1; k >= 0; k-- {
		c.Insert(uint64(k), k)
	}
	for k := 0; k < sets; k++ {
		if v, ok := c.Peek(uint64(k)); !ok || *v != k {
			t.Fatalf("%d-set array: Peek(%d) = (%v, %v)", sets, k, v, ok)
		}
	}
}

// Property: occupancy never exceeds capacity and per-set occupancy never
// exceeds associativity, under arbitrary insert/remove/lookup streams.
func TestBoundedOccupancyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewSetAssoc[int](8, 4)
		for i := 0; i < 2000; i++ {
			k := uint64(rng.Intn(256))
			switch rng.Intn(3) {
			case 0:
				c.Insert(k, i)
			case 1:
				c.Lookup(k)
			case 2:
				c.Remove(k)
			}
			if c.Len() > c.Capacity() {
				return false
			}
		}
		// Verify per-set occupancy via Range.
		perSet := map[uint64]int{}
		c.Range(func(k uint64, _ *int) bool {
			perSet[k&7]++
			return true
		})
		for _, n := range perSet {
			if n > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// refEntry is one way of the reference model.
type refEntry struct {
	key uint64
	val int
}

// Property: the cache agrees with a reference model (per-set MRU-first
// lists) on every operation's result — Lookup, Insert on a miss and on a
// hit, Remove, Peek and Victim — and, after every step, on Len and on the
// full Range sequence (set-major, then LRU order: the order checkpoints
// serialize).
func TestLRUReferenceModelProperty(t *testing.T) {
	checkLRUReference(t, 4, 3, func(rng *rand.Rand) uint64 { return uint64(rng.Intn(64)) })
}

// The same property over many sets reached by a strided, sparse key
// pattern: 16 of 256 sets, scattered, so the order in which sets first
// get their ways differs from set order and Range must not follow it.
func TestLRUReferenceModelSparseSetsProperty(t *testing.T) {
	const sets = 256
	key := func(rng *rand.Rand) uint64 {
		set := uint64(rng.Intn(16)) * 97 % sets
		return uint64(rng.Intn(5))*sets | set
	}
	c := NewSetAssoc[int](sets, 3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		c.Insert(key(rng), i)
	}
	var blocks []uint16
	for _, h := range c.hdr {
		if h != 0 {
			blocks = append(blocks, h-1)
		}
	}
	if slices.IsSorted(blocks) {
		t.Fatalf("sets got their ways in set order (blocks %v); the pattern does not test first-touch order", blocks)
	}
	checkLRUReference(t, sets, 3, key)
}

// checkLRUReference checks the reference-model property on a sets x ways
// array over random operation streams whose keys key draws: on a new
// array, and on one built from an arena out of the storage of a
// same-shape array that held other entries first.
func checkLRUReference(t *testing.T, sets, ways int, key func(*rand.Rand) uint64) {
	t.Helper()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		if !matchesLRUReference(NewSetAssoc[int](sets, ways), key, rng) {
			return false
		}
		var a Arena
		old := NewSetAssocIn[int](&a, sets, ways)
		for i := 0; i < 4*sets*ways; i++ {
			k := key(rng)
			if i%2 == 1 {
				k += 1 << 40 // a tag no operation stream draws
			}
			old.Insert(k, -1-i)
			old.Lookup(key(rng))
		}
		old.Recycle(&a)
		c := NewSetAssocIn[int](&a, sets, ways)
		if c != old {
			t.Log("the arena built a new array instead of reusing the handed-back one")
			return false
		}
		return matchesLRUReference(c, key, rng)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// matchesLRUReference runs a random operation stream on the empty array
// c against the reference model and reports whether they agree
// throughout.
func matchesLRUReference(c *SetAssoc[int], key func(*rand.Rand) uint64, rng *rand.Rand) bool {
	sets, ways := c.Sets(), c.Ways()
	if h, m, e := c.Stats(); h+m+e != 0 {
		return false
	}
	ref := make([][]refEntry, sets) // MRU-first
	pos := func(k uint64) int {
		for j, e := range ref[k%uint64(sets)] {
			if e.key == k {
				return j
			}
		}
		return -1
	}
	promote := func(set, j int) {
		e := ref[set][j]
		ref[set] = append(ref[set][:j], ref[set][j+1:]...)
		ref[set] = append([]refEntry{e}, ref[set]...)
	}
	for i := 0; i < 3000; i++ {
		k := key(rng)
		set := int(k % uint64(sets))
		j := pos(k)
		switch rng.Intn(5) {
		case 0: // Lookup promotes a hit.
			v, hit := c.Lookup(k)
			if hit != (j >= 0) || hit && *v != ref[set][j].val {
				return false
			}
			if hit {
				promote(set, j)
			}
		case 1: // Insert replaces a hit or evicts the LRU way of a full set.
			vk, vv, ev := c.Insert(k, i)
			switch {
			case j >= 0:
				ref[set][j].val = i
				promote(set, j)
				if ev {
					return false
				}
			case len(ref[set]) == ways:
				lru := ref[set][ways-1]
				if !ev || vk != lru.key || vv != lru.val {
					return false
				}
				ref[set] = append([]refEntry{{k, i}}, ref[set][:ways-1]...)
			default:
				if ev {
					return false
				}
				ref[set] = append([]refEntry{{k, i}}, ref[set]...)
			}
		case 2:
			v, ok := c.Remove(k)
			if ok != (j >= 0) || ok && v != ref[set][j].val {
				return false
			}
			if ok {
				ref[set] = append(ref[set][:j], ref[set][j+1:]...)
			}
		case 3: // Peek never promotes.
			v, ok := c.Peek(k)
			if ok != (j >= 0) || ok && *v != ref[set][j].val {
				return false
			}
		case 4:
			vk, would := c.Victim(k)
			full := j < 0 && len(ref[set]) == ways
			if would != full || full && vk != ref[set][ways-1].key {
				return false
			}
		}
		var want, got []refEntry
		for _, s := range ref {
			want = append(want, s...)
		}
		c.Range(func(k uint64, v *int) bool {
			got = append(got, refEntry{k, *v})
			return true
		})
		if !slices.Equal(got, want) || c.Len() != len(want) {
			return false
		}
	}
	return true
}

// raceEnabled is set under the race detector, which turns off the
// compiler's in-place growth for append(s, make([]T, n)...): there the
// make allocates its zeroed block as a temporary.
var raceEnabled bool

// An array allocates nothing beyond itself until the first Insert: a
// Table II LLC slice (2048 sets x 8 ways) that a job never fills costs
// one small object, and reading it before then allocates nothing either.
// The first Insert allocates the 2-byte-per-set header (4 KiB) and one
// block: the set's ways and its count entry. After that the array holds
// ways only for the sets it was given: slice 5 of 32 owns the lines whose
// low 5 bits are 5, which reach 64 of its sets.
func TestEmptyArrayAllocatesOnlyItsHeader(t *testing.T) {
	type line struct{ dirty bool }
	const slice, hnSlices, sets, ways = 5, 32, 2048, 8
	var c *SetAssoc[line]
	if n := testing.AllocsPerRun(10, func() { c = NewSetAssoc[line](sets, ways) }); n != 1 {
		t.Fatalf("NewSetAssoc(2048, 8) made %v allocations, want 1", n)
	}
	n := testing.AllocsPerRun(10, func() {
		c.Lookup(5)
		c.Peek(5)
		c.Victim(5)
		c.Remove(5)
		c.Range(func(uint64, *line) bool { return true })
	})
	if n != 0 || c.Len() != 0 {
		t.Fatalf("reads of an empty array made %v allocations (Len %d), want 0", n, c.Len())
	}
	// The fewest bytes over a few fresh arrays, so that no allocation
	// elsewhere in the process is counted.
	block := (ways + 1) * int(unsafe.Sizeof(way[line]{}))
	limit := uint64(sets*2 + block)
	if raceEnabled {
		limit += uint64(block)
	}
	first := ^uint64(0)
	for range 5 {
		a := NewSetAssoc[line](sets, ways)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a.Insert(5, line{})
		runtime.ReadMemStats(&after)
		first = min(first, after.TotalAlloc-before.TotalAlloc)
	}
	if first > limit {
		t.Fatalf("the first Insert into a %dx%d array allocated %d bytes, want at most %d", sets, ways, first, limit)
	}
	c.Insert(5, line{dirty: true})
	if v, ok := c.Peek(5); !ok || !v.dirty || c.Len() != 1 {
		t.Fatalf("after the first Insert: Peek = (%v, %v), Len %d", v, ok, c.Len())
	}
	for k := uint64(slice); k < ways*sets; k += hnSlices {
		c.Insert(k, line{})
	}
	if want := sets / hnSlices; len(c.data) != want*(ways+1) || c.Len() != want*ways {
		t.Fatalf("after filling slice %d's sets: %d entries stored, Len %d; want %d blocks of %d ways", slice, len(c.data), c.Len(), want, ways)
	}
	for set, h := range c.hdr {
		if (h != 0) != (set%hnSlices == slice) {
			t.Fatalf("set %d has header %d", set, h)
		}
	}
}

// An array built from an arena reuses the header table and blocks a
// same-shape array handed back, so a Table II LLC slice that refills the
// 64 sets its predecessor reached allocates nothing, from its first
// Insert on, and handing it back allocates nothing either.
func TestArenaArrayAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates each new block as a temporary")
	}
	type line struct{ dirty bool }
	const slice, hnSlices, sets, ways = 5, 32, 2048, 8
	fill := func(c *SetAssoc[line]) {
		for k := uint64(slice); k < ways*sets; k += hnSlices {
			c.Insert(k, line{dirty: true})
		}
	}
	var a Arena
	first := NewSetAssocIn[line](&a, sets, ways)
	fill(first)
	first.Recycle(&a)
	n := testing.AllocsPerRun(10, func() {
		c := NewSetAssocIn[line](&a, sets, ways)
		c.Insert(slice, line{})
		fill(c)
		c.Recycle(&a)
	})
	if n != 0 {
		t.Fatalf("building, filling and handing back an arena array made %v allocations, want 0", n)
	}
}

// An arena hands an array back only to a request for its element type
// and geometry; Trim drops what it holds.
func TestArenaMatchesTypeAndGeometry(t *testing.T) {
	var a Arena
	c := NewSetAssocIn[int](&a, 8, 4)
	c.Insert(3, 3)
	c.Recycle(&a)
	NewSetAssocIn[uint64](&a, 8, 4)
	NewSetAssocIn[int](&a, 16, 4)
	NewSetAssocIn[int](&a, 8, 2)
	if NewSetAssocIn[int](&a, 8, 4) != c {
		t.Fatal("a request of another element type or geometry took the handed-back array")
	}
	if NewSetAssocIn[int](&a, 8, 4) == c {
		t.Fatal("the arena handed one array out twice")
	}
	c.Recycle(&a)
	a.Trim()
	if NewSetAssocIn[int](&a, 8, 4) == c {
		t.Fatal("Trim kept a handed-back array")
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := NewSetAssoc[uint64](256, 4)
	for i := uint64(0); i < 1024; i++ {
		c.Insert(i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i) & 1023)
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	c := NewSetAssoc[uint64](256, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Insert(uint64(i), uint64(i))
	}
}
