package main

import (
	"math/rand"
	"slices"
	"sync"
	"time"

	"dynamo/perfbench/measure"
)

// Host speed. A shared machine's CPUs run faster or slower by tens of
// percent over tens of seconds as other tenants come and go, and every
// host-time metric inherits that drift. While a window runs, a probe
// goroutine times a fixed reference kernel every probeEvery; the window's
// host-time metrics are then scaled by refNominal over the kernel's median
// time, so a run on a slow stretch of host time reports what it would on
// a nominal one. The kernel allocates nothing, so the process's own heap
// and garbage collector do not slow it; it sorts, looks up a map and
// chases pointers over a working set of a few hundred KiB, the mix the
// simulator itself spends its time on.
const (
	probeEvery = 50 * time.Millisecond
	// refNominal is the kernel's median time on the host the bounds were
	// set on (2 vCPUs of a shared Xeon VM).
	refNominal = 2 * time.Millisecond
)

// refKernel is the reference computation; its tables are built once.
type refKernel struct {
	src, work []int
	table     map[int]int
	next      []int32
}

func newRefKernel() *refKernel {
	r := rand.New(rand.NewSource(3))
	k := &refKernel{src: make([]int, 20000), table: make(map[int]int, 5000)}
	for i := range k.src {
		k.src[i] = r.Intn(1 << 30)
	}
	k.work = make([]int, len(k.src))
	for i := 0; i < 5000; i++ {
		k.table[r.Intn(20000)] = i
	}
	n := 1 << 15
	perm := r.Perm(n)
	k.next = make([]int32, n)
	for i := range perm {
		k.next[perm[i]] = int32(perm[(i+1)%n])
	}
	return k
}

// run performs one fixed unit of reference work and returns a value that
// depends on all of it, so none of it can be optimized away.
func (k *refKernel) run() int {
	copy(k.work, k.src)
	slices.Sort(k.work)
	sum := k.work[len(k.work)/2]
	for i := 0; i < 20000; i++ {
		sum += k.table[i]
	}
	j := int32(0)
	for i := 0; i < 40000; i++ {
		j = k.next[j]
	}
	return sum + int(j)
}

// speedProbe collects reference-kernel times over a window, either from
// a background goroutine (for workloads that keep both processors busy)
// or inline between sequential operations.
type speedProbe struct {
	kernel  *refKernel
	stop    chan struct{} // nil: no background sampler
	done    chan struct{}
	mu      sync.Mutex
	samples []float64 // ms
	// inline holds the inline samples in order (ms), one per operation,
	// and inlineTime the time they took, which the window excludes.
	inline     []float64
	inlineTime time.Duration
	sink       int
}

var sharedKernel = sync.OnceValue(newRefKernel)

func newProbe(background bool) *speedProbe {
	p := &speedProbe{kernel: sharedKernel()}
	if !background {
		return p
	}
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.sample()
			}
		}
	}()
	return p
}

// sample times one run of the reference kernel.
func (p *speedProbe) sample() float64 {
	t0 := time.Now()
	v := p.kernel.run()
	d := ms(time.Since(t0))
	p.mu.Lock()
	p.samples = append(p.samples, d)
	p.sink += v
	p.mu.Unlock()
	return d
}

// between takes an inline sample after a sequential operation.
func (p *speedProbe) between() {
	t0 := time.Now()
	p.inline = append(p.inline, p.sample())
	p.inlineTime += time.Since(t0)
}

// end stops the background sampler, if any, and returns the kernel's
// median time in ms (0 when the window was too short for a sample).
func (p *speedProbe) end() float64 {
	if p.stop != nil {
		close(p.stop)
		<-p.done
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return measure.Median(p.samples)
}

// opSpeeds returns the host speed at each of n sequential operations: the
// median of the inline samples around it, which follows drift within the
// window while damping one sample's jitter. Without one inline sample per
// operation every operation gets the window's speed.
func (w window) opSpeeds(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if len(w.inline) != n {
			out[i] = speed(w.refMS)
			continue
		}
		lo, hi := max(i-2, 0), min(i+3, n)
		out[i] = speed(measure.Median(w.inline[lo:hi]))
	}
	return out
}
