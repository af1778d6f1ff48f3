// Package workload implements the 21 benchmark analogs of Table III plus
// the shared-counter microbenchmark of Fig. 1. Each workload is a set of
// thread programs that run real algorithms against simulated memory — the
// sorted arrays, histograms and BFS distances they produce are validated
// after every run — using the same synchronization primitives as the
// paper's benchmarks: an emulated POSIX mutex with the exact cache-block
// layout of Fig. 4, test-and-test-and-set spinlocks, sense-reversing
// barriers, and direct atomic updates (ldadd/stadd/ldmin/stmin/cas).
//
// The inputs are synthetic, scaled-down stand-ins for the paper's data sets
// (DIMACS road graphs, Kronecker graphs, images, sparse matrices) that
// preserve each benchmark's synchronization pattern, AMO footprint class
// and locality class.
package workload

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"dynamo/internal/cpu"
	"dynamo/internal/memory"
	"dynamo/internal/obs"
)

// Class is the APKI intensity set of Fig. 6.
type Class uint8

const (
	// Low is 0-2 AMOs per kilo-instruction.
	Low Class = iota
	// Medium is 2-8 APKI.
	Medium
	// High is >8 APKI.
	High
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Low:
		return "L"
	case Medium:
		return "M"
	case High:
		return "H"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Params selects the workload size and input.
type Params struct {
	// Threads is the number of worker threads (== cores used).
	Threads int
	// Seed drives every pseudo-random choice; runs are reproducible.
	Seed int64
	// Scale multiplies the default problem size; 0 means 1.0. Benchmarks
	// use small scales for quick turnaround.
	Scale float64
	// Input selects a named input variant; empty selects the default.
	Input string
}

func (p Params) scale() float64 {
	if p.Scale <= 0 {
		return 1
	}
	return p.Scale
}

// scaled returns max(1, round(n*scale)).
func (p Params) scaled(n int) int {
	v := int(float64(n)*p.scale() + 0.5)
	if v < 1 {
		return 1
	}
	return v
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Threads <= 0 || p.Threads > 64 {
		return fmt.Errorf("workload: %d threads", p.Threads)
	}
	return nil
}

// Instance is a built workload: one program per thread plus the functional
// validator run against the simulated memory afterwards.
type Instance struct {
	Programs []cpu.Program
	// Setup pre-populates the functional memory image (graph structure,
	// initial distances, input data) before the run, standing in for the
	// initialization phases the paper excludes from its region of
	// interest. May be nil.
	Setup func(data *memory.Store)
	// Validate checks the computation's result; it must fail if any atomic
	// update was lost or any synchronization failed.
	Validate func(data *memory.Store) error
	// AMOFootprintBytes is the size of AMO-touched data (Table III).
	AMOFootprintBytes int64
	// Sites annotates the workload's memory regions (locks, shared arrays)
	// for contention-profile attribution; the facade registers them on the
	// run's observability bus. Populated from the instance allocator's
	// tagged reservations.
	Sites []obs.Site
}

// Spec describes one registered workload.
type Spec struct {
	// Name is the registry key ("barnes", "histogram", ...).
	Name string
	// Code is the Table III acronym (BAR, HIST, ...).
	Code string
	// Suite is the originating benchmark suite.
	Suite string
	// Sync lists the synchronization primitives employing AMOs (Table III).
	Sync string
	// Class is the expected APKI intensity set.
	Class Class
	// Inputs lists accepted Input values; the first is the default.
	Inputs []string
	// build constructs the instance from checked params.
	build func(Params) (*Instance, error)
	// footprint is the AMOFootprintBytes build reports for checked
	// params, computed from the sizes build allocates by (lock and cell
	// counts, graph dimensions, input shapes) without building anything.
	footprint func(Params) int64
}

// Build validates p and constructs the instance.
func (s *Spec) Build(p Params) (*Instance, error) {
	p, err := s.check(p)
	if err != nil {
		return nil, err
	}
	return s.build(p)
}

// AMOFootprint returns the AMO footprint, in bytes, of the instance
// Build(p) returns (Table III's column), without generating any input or
// program. It rejects the params Build rejects.
func (s *Spec) AMOFootprint(p Params) (int64, error) {
	p, err := s.check(p)
	if err != nil {
		return 0, err
	}
	return s.footprint(p), nil
}

// check validates p and its input, and fills in the default input.
func (s *Spec) check(p Params) (Params, error) {
	if err := p.Validate(); err != nil {
		return p, err
	}
	switch {
	case p.Input == "":
		p.Input = s.DefaultInput()
	case !slices.Contains(s.Inputs, p.Input):
		return p, fmt.Errorf("workload: %s has no input %q (have %v)", s.Name, p.Input, s.Inputs)
	}
	return p, nil
}

// DefaultInput returns the first input name or "".
func (s *Spec) DefaultInput() string {
	if len(s.Inputs) == 0 {
		return ""
	}
	return s.Inputs[0]
}

var registry = map[string]*Spec{}

func register(s *Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("workload: duplicate registration of " + s.Name)
	}
	registry[s.Name] = s
}

// ErrUnknown reports a workload name absent from the registry. It is
// re-exported at the package dynamo surface as ErrUnknownWorkload; match
// with errors.Is.
var ErrUnknown = errors.New("unknown workload")

// Get returns the named workload.
func Get(name string) (*Spec, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: %w %q", ErrUnknown, name)
	}
	return s, nil
}

// Names returns all registered workload names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TableIIIOrder lists the 21 benchmarks in the paper's Table III order.
func TableIIIOrder() []string {
	return []string{
		"barnes", "fmm", "ocean", "radiosity", "raytrace", "volrend", "water",
		"bfs", "cc", "cluster", "gmetis", "kcore", "pagerank", "spt", "sssp",
		"bc", "tc",
		"fluidanimate", "histogram", "radixsort", "spmv",
	}
}

// All returns the Table III workloads in paper order.
func All() []*Spec {
	specs := make([]*Spec, 0, len(registry))
	for _, n := range TableIIIOrder() {
		s, err := Get(n)
		if err != nil {
			panic(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// fixed is the footprint of a workload whose AMO-updated data does not
// scale.
func fixed(bytes int64) func(Params) int64 {
	return func(Params) int64 { return bytes }
}

// Alloc is a bump allocator for the simulated address space. Each instance
// gets its own; addresses start above 1 MiB to stay clear of the zero page.
// Named reservations double as obs.Site annotations so contention profiles
// can attribute hot cache lines back to workload structures.
type Alloc struct {
	next  memory.Addr
	sites []obs.Site
}

// NewAlloc returns a fresh allocator.
func NewAlloc() *Alloc { return &Alloc{next: 1 << 20} }

// Words reserves n consecutive 64-bit words and returns the base address.
func (a *Alloc) Words(n int) memory.Addr {
	base := a.next
	a.next += memory.Addr(n) * 8
	return base
}

// Lines reserves n cache lines, line-aligned, and returns the base.
func (a *Alloc) Lines(n int) memory.Addr {
	a.next = (a.next + memory.LineSize - 1) &^ (memory.LineSize - 1)
	base := a.next
	a.next += memory.Addr(n) * memory.LineSize
	return base
}

// Tag records [base, base+bytes) as the named site for profile attribution.
func (a *Alloc) Tag(name string, base memory.Addr, bytes int64) {
	if bytes > 0 {
		a.sites = append(a.sites, obs.Site{Name: name, Base: base, Bytes: bytes})
	}
}

// NamedWords reserves n words and tags the region.
func (a *Alloc) NamedWords(name string, n int) memory.Addr {
	base := a.Words(n)
	a.Tag(name, base, int64(n)*8)
	return base
}

// NamedLines reserves n lines and tags the region.
func (a *Alloc) NamedLines(name string, n int) memory.Addr {
	base := a.Lines(n)
	a.Tag(name, base, int64(n)*memory.LineSize)
	return base
}

// Sites returns the tagged reservations, in allocation order.
func (a *Alloc) Sites() []obs.Site { return a.sites }

// Used returns the total bytes reserved.
func (a *Alloc) Used() int64 { return int64(a.next - (1 << 20)) }

// word indexes a words array.
func word(base memory.Addr, i int) memory.Addr { return base + memory.Addr(i)*8 }

// chunk computes thread t's half-open [lo,hi) share of n items split over
// p threads.
func chunk(n, p, t int) (lo, hi int) {
	per := (n + p - 1) / p
	lo = t * per
	hi = lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}
