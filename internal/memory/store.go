package memory

import "sort"

// pageWords is the number of 64-bit words in one page of the store, and
// pageShift the log2 of a page's size in bytes.
const (
	pageWords = 64
	pageShift = 9
)

// page holds the words of one page-aligned block of memory.
type page [pageWords]uint64

// noPage is a page key no address maps to, so an empty cache never hits.
const noPage = ^uint64(0)

// Store is the functional backing store for simulated memory. The simulator
// is execution-driven: workloads compute real results (histograms, sorted
// arrays, BFS distances) in this store, which lets integration tests verify
// that no update is ever lost regardless of AMO placement.
//
// Values are 64-bit words at 8-byte-aligned addresses; unaligned accesses
// are rounded down to their containing word. All timing-model serialization
// happens in the protocol layer, so Store itself is owned by the
// single-threaded simulation engine. Words live in 64-word pages made on
// the first non-zero write to them; the store remembers the last page it
// looked up, a missing one included, so a sequential scan costs one map
// lookup per page rather than one per word.
type Store struct {
	pages map[uint64]*page
	// lastKey and last cache the most recent lookup; last is nil when that
	// page has never been written.
	lastKey uint64
	last    *page
	// spare holds cleared pages a Reset kept, taken before new ones.
	spare []*page
}

// NewStore returns an empty store; unwritten memory reads as zero.
func NewStore() *Store {
	return &Store{pages: make(map[uint64]*page), lastKey: noPage}
}

// locate splits a into its page key and the index of its word in the page.
func locate(a Addr) (key uint64, word int) {
	return uint64(a) >> pageShift, int(a>>3) & (pageWords - 1)
}

// lookup returns the page with the given key, or nil if it was never
// written.
func (s *Store) lookup(key uint64) *page {
	if key != s.lastKey {
		s.lastKey, s.last = key, s.pages[key]
	}
	return s.last
}

// writable returns the page with the given key, making it if need be.
func (s *Store) writable(key uint64) *page {
	p := s.lookup(key)
	if p == nil {
		if n := len(s.spare); n > 0 {
			p = s.spare[n-1]
			s.spare[n-1] = nil
			s.spare = s.spare[:n-1]
		} else {
			p = new(page)
		}
		s.pages[key] = p
		s.last = p
	}
	return p
}

// Load returns the 64-bit word at a.
func (s *Store) Load(a Addr) uint64 {
	key, w := locate(a)
	if p := s.lookup(key); p != nil {
		return p[w]
	}
	return 0
}

// StoreWord writes the 64-bit word at a.
func (s *Store) StoreWord(a Addr, v uint64) {
	key, w := locate(a)
	if v == 0 {
		if p := s.lookup(key); p != nil {
			p[w] = 0
		}
		return
	}
	s.writable(key)[w] = v
}

// AMO applies an atomic read-modify-write at a and returns the prior value.
func (s *Store) AMO(op AMOOp, a Addr, operand, compare uint64) (old uint64) {
	key, w := locate(a)
	p := s.lookup(key)
	if p != nil {
		old = p[w]
	}
	stored, _ := ApplyAMO(op, old, operand, compare)
	if stored != old {
		if p == nil {
			p = s.writable(key)
		}
		p[w] = stored
	}
	return old
}

// Reset empties the store for a later simulation, which then reads zero
// everywhere, as from NewStore, but writes into the pages this one made
// instead of allocating its own. Only the pages the image used are
// cleared, and only they are kept: spare pages it did not take are
// dropped, so a reset store holds exactly the pages of the image it just
// emptied. The page map keeps its capacity.
func (s *Store) Reset() {
	clear(s.spare)
	s.spare = s.spare[:0]
	for _, p := range s.pages {
		*p = page{}
		s.spare = append(s.spare, p)
	}
	clear(s.pages)
	s.lastKey, s.last = noPage, nil
}

// Word is one (address, value) pair of the functional image.
type Word struct {
	Addr  Addr
	Value uint64
}

// Words returns every non-zero word sorted by address — the canonical
// functional image, used to digest a run's result for metamorphic
// (perturbation-invariance) testing.
func (s *Store) Words() []Word {
	keys := make([]uint64, 0, len(s.pages))
	n := 0
	for key, p := range s.pages {
		keys = append(keys, key)
		for _, v := range p {
			if v != 0 {
				n++
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Word, 0, n)
	for _, key := range keys {
		for w, v := range s.pages[key] {
			if v != 0 {
				out = append(out, Word{Addr: Addr(key<<pageShift | uint64(w)<<3), Value: v})
			}
		}
	}
	return out
}
