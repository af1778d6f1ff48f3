package workload

import (
	"strings"
	"testing"

	"dynamo/internal/memory"
	"dynamo/internal/obs"
)

// The validators are the safety net for the whole simulator: if the
// protocol ever loses or duplicates an atomic update, a validator must
// fail. These tests inject corruption into otherwise-correct runs and
// assert every validator catches it.

func TestValidatorsCatchCorruption(t *testing.T) {
	// For each workload: run correctly, validate OK, corrupt one result
	// word, validate again and demand failure. Workloads whose outputs
	// are spread over known regions use their own floor offsets.
	cases := []struct {
		workload string
		// probe locates a result word to corrupt; nil uses a generic scan
		// from the middle of the address space.
		probe func(data *memory.Store) (memory.Addr, uint64)
	}{
		{"histogram", nil},
		{"radixsort", nil},
		{"cluster", nil},
		{"spmv", nil},
		{"radiosity", nil},
		{"tc", nil},
	}
	for _, c := range cases {
		c := c
		t.Run(c.workload, func(t *testing.T) {
			t.Parallel()
			s, err := Get(c.workload)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := s.Build(Params{Threads: 4, Seed: 2, Scale: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			m := testMachine(t, "all-near")
			runInstance(t, m, inst)
			// Scan from the top of the allocation downwards so we hit
			// result arrays (allocated last) rather than input data.
			data := m.Sys.Data
			var corrupted bool
			for a := memory.Addr(1<<20) + (4 << 20); a > 1<<20; a -= 8 {
				if v := data.Load(a); v != 0 {
					data.StoreWord(a, v+1)
					if err := inst.Validate(data); err != nil {
						corrupted = true
						break
					}
					data.StoreWord(a, v) // restore and keep looking
				}
			}
			if !corrupted {
				t.Fatal("no corruption detected by the validator")
			}
		})
	}
}

// spmv's validator checks every row of y, not only the rows the matrix
// touches: a stray write into a row no entry scatters to must fail it.
// TestValidatorsCatchCorruption bumps words that are already non-zero, so
// it cannot tell.
func TestSPMVValidatorCatchesStrayWrite(t *testing.T) {
	s, err := Get("spmv")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Build(Params{Threads: 4, Seed: 2, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, "all-near")
	runInstance(t, m, inst)
	var y obs.Site
	for _, site := range inst.Sites {
		if site.Name == "y" {
			y = site
		}
	}
	rows := int(y.Bytes / 8)
	if rows == 0 {
		t.Fatal("spmv tagged no y region")
	}
	data := m.Sys.Data
	var untouched []int
	for r := 0; r < rows; r++ {
		if data.Load(word(y.Base, r)) == 0 {
			untouched = append(untouched, r)
		}
	}
	if len(untouched) == 0 {
		t.Fatal("every row of y is non-zero; the test needs an untouched row")
	}
	// The first and the last untouched rows: a validator that stopped at
	// the last touched row would miss the second.
	for _, r := range []int{untouched[0], untouched[len(untouched)-1]} {
		data.StoreWord(word(y.Base, r), 1)
		err := inst.Validate(data)
		data.StoreWord(word(y.Base, r), 0)
		if err == nil {
			t.Fatalf("validator accepted a stray write to untouched row %d of %d", r, rows)
		}
	}
	if err := inst.Validate(data); err != nil {
		t.Fatalf("restored result no longer validates: %v", err)
	}
}

func TestBFSValidatorCatchesWrongDistance(t *testing.T) {
	s, err := Get("bfs")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Build(Params{Threads: 4, Seed: 2, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, "all-near")
	runInstance(t, m, inst)
	// Find a finite distance word and shrink it: a BFS level can never be
	// smaller than the true shortest distance.
	data := m.Sys.Data
	found := false
	for a := memory.Addr(1 << 20); a < 1<<23; a += 8 {
		v := data.Load(a)
		if v > 1 && v < 1000 {
			data.StoreWord(a, v-1)
			if err := inst.Validate(data); err != nil {
				if !strings.Contains(err.Error(), "dist") {
					t.Fatalf("unexpected validation error: %v", err)
				}
				found = true
				break
			}
			data.StoreWord(a, v)
		}
	}
	if !found {
		t.Fatal("validator accepted a corrupted distance")
	}
}

func TestSeedsChangeWorkloads(t *testing.T) {
	// Different seeds must produce genuinely different instances (checked
	// through their run lengths), while the same seed reproduces exactly.
	cycles := func(seed int64) uint64 {
		s, _ := Get("gmetis")
		inst, err := s.Build(Params{Threads: 4, Seed: seed, Scale: 0.12})
		if err != nil {
			t.Fatal(err)
		}
		m := testMachine(t, "all-near")
		res := runInstance(t, m, inst)
		return uint64(res.Cycles)
	}
	a1, a2, b := cycles(10), cycles(10), cycles(11)
	if a1 != a2 {
		t.Fatalf("same seed, different cycles: %d vs %d", a1, a2)
	}
	if a1 == b {
		t.Fatalf("different seeds produced identical runs (%d)", a1)
	}
}

func TestScaleShrinksWork(t *testing.T) {
	s, _ := Get("spmv")
	big, err := s.Build(Params{Threads: 2, Seed: 1, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.Build(Params{Threads: 2, Seed: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	mBig := testMachine(t, "all-near")
	mSmall := testMachine(t, "all-near")
	rb := runInstance(t, mBig, big)
	rs := runInstance(t, mSmall, small)
	if rs.AMOs >= rb.AMOs {
		t.Fatalf("scale 0.1 ran %d AMOs, >= scale 0.3's %d", rs.AMOs, rb.AMOs)
	}
}
