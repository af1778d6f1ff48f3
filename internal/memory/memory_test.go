package memory

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestLineMath(t *testing.T) {
	cases := []struct {
		addr Addr
		line Line
		off  uint
	}{
		{0, 0, 0},
		{63, 0, 63},
		{64, 1, 0},
		{65, 1, 1},
		{4096, 64, 0},
		{0xdeadbeef, 0xdeadbeef >> 6, 0xdeadbeef & 63},
	}
	for _, c := range cases {
		if LineOf(c.addr) != c.line {
			t.Errorf("LineOf(%#x) = %#x, want %#x", c.addr, LineOf(c.addr), c.line)
		}
		if Offset(c.addr) != c.off {
			t.Errorf("Offset(%#x) = %d, want %d", c.addr, Offset(c.addr), c.off)
		}
	}
}

func TestLineBaseRoundTrip(t *testing.T) {
	f := func(a Addr) bool {
		l := LineOf(a)
		base := l.Base()
		return LineOf(base) == l && base <= a && a-base < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatepredicates(t *testing.T) {
	cases := []struct {
		s                              State
		unique, shared, present, dirty bool
		name                           string
	}{
		{Invalid, false, false, false, false, "I"},
		{SharedClean, false, true, true, false, "SC"},
		{SharedDirty, false, true, true, true, "SD"},
		{UniqueClean, true, false, true, false, "UC"},
		{UniqueDirty, true, false, true, true, "UD"},
	}
	for _, c := range cases {
		if c.s.Unique() != c.unique || c.s.Shared() != c.shared ||
			c.s.Present() != c.present || c.s.Dirty() != c.dirty {
			t.Errorf("%v predicates wrong", c.s)
		}
		if c.s.String() != c.name {
			t.Errorf("String(%d) = %q, want %q", c.s, c.s.String(), c.name)
		}
	}
}

func TestApplyAMOSemantics(t *testing.T) {
	cases := []struct {
		op                    AMOOp
		old, operand, compare uint64
		stored, returned      uint64
	}{
		{AMOAdd, 10, 5, 0, 15, 10},
		{AMOAdd, ^uint64(0), 1, 0, 0, ^uint64(0)}, // wraps
		{AMOSwap, 7, 42, 0, 42, 7},
		{AMOCAS, 7, 42, 7, 42, 7}, // success
		{AMOCAS, 8, 42, 7, 8, 8},  // failure keeps old
		{AMOAnd, 0b1100, 0b1010, 0, 0b1000, 0b1100},
		{AMOOr, 0b1100, 0b1010, 0, 0b1110, 0b1100},
		{AMOXor, 0b1100, 0b1010, 0, 0b0110, 0b1100},
		{AMOMin, 5, ^uint64(0) /* -1 */, 0, ^uint64(0), 5},
		{AMOMax, 5, ^uint64(0) /* -1 */, 0, 5, 5},
		{AMOUMin, 5, ^uint64(0), 0, 5, 5},
		{AMOUMax, 5, ^uint64(0), 0, ^uint64(0), 5},
	}
	for _, c := range cases {
		stored, returned := ApplyAMO(c.op, c.old, c.operand, c.compare)
		if stored != c.stored || returned != c.returned {
			t.Errorf("%v(old=%d, operand=%d, cmp=%d) = (%d,%d), want (%d,%d)",
				c.op, c.old, c.operand, c.compare, stored, returned, c.stored, c.returned)
		}
	}
}

// Property: every AMO returns the old value, and the stored value matches an
// independent reference model.
func TestApplyAMOProperty(t *testing.T) {
	ref := func(op AMOOp, old, operand, compare uint64) uint64 {
		switch op {
		case AMOAdd:
			return old + operand
		case AMOSwap:
			return operand
		case AMOCAS:
			if old == compare {
				return operand
			}
			return old
		case AMOAnd:
			return old & operand
		case AMOOr:
			return old | operand
		case AMOXor:
			return old ^ operand
		case AMOMin:
			return uint64(min(int64(old), int64(operand)))
		case AMOMax:
			return uint64(max(int64(old), int64(operand)))
		case AMOUMin:
			return min(old, operand)
		case AMOUMax:
			return max(old, operand)
		}
		panic("unreachable")
	}
	f := func(opSel uint8, old, operand, compare uint64) bool {
		op := AMOOps[int(opSel)%len(AMOOps)]
		stored, returned := ApplyAMO(op, old, operand, compare)
		return returned == old && stored == ref(op, old, operand, compare)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMutates(t *testing.T) {
	if Mutates(AMOAdd, 5, 0, 0) {
		t.Error("add 0 reported as mutating")
	}
	if !Mutates(AMOAdd, 5, 1, 0) {
		t.Error("add 1 reported as non-mutating")
	}
	if Mutates(AMOCAS, 5, 9, 4) {
		t.Error("failed CAS reported as mutating")
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if got := s.Load(0x1000); got != 0 {
		t.Fatalf("fresh memory reads %d, want 0", got)
	}
	s.StoreWord(0x1000, 99)
	if got := s.Load(0x1000); got != 99 {
		t.Fatalf("Load = %d, want 99", got)
	}
	// Unaligned access rounds down to the containing word.
	if got := s.Load(0x1003); got != 99 {
		t.Fatalf("unaligned Load = %d, want 99", got)
	}
	s.StoreWord(0x1000, 0)
	if n := len(s.Words()); n != 0 {
		t.Fatalf("%d words after zeroing, want 0", n)
	}
}

func TestStoreAMO(t *testing.T) {
	s := NewStore()
	for i := 0; i < 100; i++ {
		old := s.AMO(AMOAdd, 0x2000, 1, 0)
		if old != uint64(i) {
			t.Fatalf("AMO add #%d returned %d", i, old)
		}
	}
	if got := s.Load(0x2000); got != 100 {
		t.Fatalf("counter = %d, want 100", got)
	}
	old := s.AMO(AMOCAS, 0x2000, 7, 100)
	if old != 100 || s.Load(0x2000) != 7 {
		t.Fatalf("CAS success: old=%d val=%d", old, s.Load(0x2000))
	}
	old = s.AMO(AMOCAS, 0x2000, 11, 100)
	if old != 7 || s.Load(0x2000) != 7 {
		t.Fatalf("CAS failure: old=%d val=%d", old, s.Load(0x2000))
	}
}

// Property: a store followed by a load round-trips for any aligned address.
func TestStoreRoundTripProperty(t *testing.T) {
	s := NewStore()
	f := func(a Addr, v uint64) bool {
		s.StoreWord(a, v)
		return s.Load(a) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the paged store behaves as a plain map from word address to
// value. Random StoreWord, AMO and Load calls run against both, and Load
// and Words are compared after every step. Addresses come from a few
// clusters: both sides of a page boundary, unaligned offsets inside one
// page, and high addresses far apart, and a third of the writes are zero.
func TestStoreMatchesMapProperty(t *testing.T) {
	bases := []Addr{0, 0x200 - 0x20, 0x1000, 0x7fff_ffff_fe00, 0xffff_ffff_ffff_ff00, 0x8000_0000_0000_0000}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		ref := make(map[Addr]uint64)
		addr := func() Addr { return bases[rng.Intn(len(bases))] + Addr(rng.Intn(0x40)) }
		value := func() uint64 {
			if rng.Intn(3) == 0 {
				return 0
			}
			return uint64(rng.Intn(4)) << uint(rng.Intn(64))
		}
		for step := 0; step < 200; step++ {
			a := addr()
			w := a &^ 7
			switch rng.Intn(3) { // one step in three only loads, below
			case 0:
				v := value()
				s.StoreWord(a, v)
				ref[w] = v
			case 1:
				op := AMOOps[rng.Intn(len(AMOOps))]
				operand, compare := value(), value()
				if old := s.AMO(op, a, operand, compare); old != ref[w] {
					t.Logf("step %d: %v at %#x returned %d, want %d", step, op, a, old, ref[w])
					return false
				}
				ref[w], _ = ApplyAMO(op, ref[w], operand, compare)
			}
			probe := addr()
			if got, want := s.Load(probe), ref[probe&^7]; got != want {
				t.Logf("step %d: Load(%#x) = %d, want %d", step, probe, got, want)
				return false
			}
			if !sameWords(s.Words(), ref) {
				t.Logf("step %d: Words disagrees with the reference map", step)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a reset store reads zero at every address the store wrote
// before, holds no words, and then behaves exactly as a new store: the
// same writes leave it with the same Words and Loads. Rewriting no more
// pages than it held allocates nothing.
func TestResetStoreMatchesNewProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		addr := func() Addr { return Addr(rng.Intn(1 << 16)) }
		s := NewStore()
		var written []Addr
		for range 300 {
			a := addr()
			s.StoreWord(a, rng.Uint64()|1)
			s.AMO(AMOAdd, addr(), 1, 0)
			written = append(written, a)
		}
		pages := len(s.pages)
		s.Reset()
		if len(s.spare) != pages || len(s.Words()) != 0 {
			t.Logf("a reset store holds %d words and %d spare pages; its image had %d pages", len(s.Words()), len(s.spare), pages)
			return false
		}
		for _, a := range written {
			if s.Load(a) != 0 {
				t.Logf("a reset store reads %d at %#x", s.Load(a), a)
				return false
			}
		}
		fresh := NewStore()
		for range 300 {
			a, v := addr(), uint64(rng.Intn(4))
			s.StoreWord(a, v)
			fresh.StoreWord(a, v)
			a = addr()
			if s.AMO(AMOAdd, a, 5, 0) != fresh.AMO(AMOAdd, a, 5, 0) {
				return false
			}
		}
		for _, a := range written {
			if s.Load(a) != fresh.Load(a) {
				return false
			}
		}
		got, want := s.Words(), fresh.Words()
		if !slices.Equal(got, want) {
			t.Logf("after the same writes a reset store holds %d words, a new one %d", len(got), len(want))
			return false
		}
		// Spare pages the second image did not take are dropped.
		pages = len(s.pages)
		s.Reset()
		if len(s.spare) != pages {
			t.Logf("the store kept %d pages, its last image had %d", len(s.spare), pages)
			return false
		}
		n := testing.AllocsPerRun(1, func() {
			for p := range s.spare {
				s.StoreWord(Addr(p)<<pageShift, 1)
			}
			s.Reset()
		})
		return n == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// sameWords reports whether words lists exactly ref's non-zero entries, in
// strictly increasing address order.
func sameWords(words []Word, ref map[Addr]uint64) bool {
	n := 0
	for i, w := range words {
		if w.Value == 0 || ref[w.Addr] != w.Value || (i > 0 && words[i-1].Addr >= w.Addr) {
			return false
		}
	}
	for _, v := range ref {
		if v != 0 {
			n++
		}
	}
	return n == len(words)
}

func BenchmarkStoreAMO(b *testing.B) {
	s := NewStore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AMO(AMOAdd, Addr(i%1024)*8, 1, 0)
	}
}
