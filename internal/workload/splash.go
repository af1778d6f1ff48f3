package workload

import (
	"fmt"
	"math/rand"

	"dynamo/internal/cpu"
	"dynamo/internal/memory"
)

// splashShape parameterizes the Splash-3-style scientific applications:
// compute phases over private data punctuated by Pthread-mutex-protected
// updates to shared cells. The shapes differ in lock count (the AMO
// footprint of Table III), contention skew, compute density (the APKI
// class) and private-data locality.
type splashShape struct {
	locks          int     // mutex count; each protects one data cell line
	iters          int     // iterations per thread
	compute        int     // local-work instructions per iteration
	privateWords   int     // per-thread private working set (reused)
	privateTouches int     // private accesses per iteration
	critWords      int     // shared words updated per critical section
	hotFrac        float64 // probability of picking lock 0 (contention)
	casAccums      int     // extra direct-CAS accumulators (Water)
}

// at is the shape at p's scale: the lock count scales, nothing else does.
func (s splashShape) at(p Params) splashShape {
	s.locks = p.scaled(s.locks)
	return s
}

// buildSplash creates an instance from a shape. Validation counts every
// mutex-protected increment and every CAS-retry increment: a lost update
// or broken mutual exclusion fails the run.
func buildSplash(shape splashShape, p Params) (*Instance, error) {
	alloc := NewAlloc()
	locks := NewNamedMutexes(alloc, "cell-locks", shape.locks)
	// One data line per lock; critical sections update words within it.
	dataBase := alloc.NamedLines("cells", shape.locks)
	cell := func(lock, w int) memory.Addr {
		return dataBase + memory.Addr(lock)*memory.LineSize + memory.Addr(w)*8
	}
	var accums memory.Addr
	if shape.casAccums > 0 {
		accums = alloc.NamedWords("cas-accums", shape.casAccums)
	}
	privBase := make([]memory.Addr, p.Threads)
	for i := range privBase {
		privBase[i] = alloc.Words(shape.privateWords)
	}
	inst := &Instance{
		AMOFootprintBytes: int64(shape.locks)*memory.LineSize + int64(shape.casAccums)*8,
		Sites:             alloc.Sites(),
	}
	iters := p.scaled(shape.iters)
	for i := 0; i < p.Threads; i++ {
		tid := i
		inst.Programs = append(inst.Programs, func(t *cpu.Thread) {
			rng := rand.New(rand.NewSource(p.Seed ^ int64(tid+1)*0x7f4a7c15))
			priv := privBase[tid]
			for it := 0; it < iters; it++ {
				t.Compute(shape.compute)
				// Private phase: strided walk with reuse of a hot window.
				for j := 0; j < shape.privateTouches; j++ {
					w := (it*shape.privateTouches + j) % shape.privateWords
					v := t.Load(word(priv, w))
					t.Store(word(priv, w), v+1)
				}
				// Synchronization phase: mutex-protected shared update.
				li := 0
				if rng.Float64() >= shape.hotFrac {
					li = rng.Intn(shape.locks)
				}
				locks[li].Lock(t)
				for w := 0; w < shape.critWords; w++ {
					v := t.Load(cell(li, w))
					t.Store(cell(li, w), v+1)
				}
				locks[li].Unlock(t)
				// Direct atomic updates (Water's cas accumulators).
				if shape.casAccums > 0 {
					a := word(accums, rng.Intn(shape.casAccums))
					for {
						old := t.Load(a)
						if t.CAS(a, old, old+1) == old {
							break
						}
						t.Compute(6)
					}
				}
			}
			t.Fence()
		})
	}
	wantCrit := uint64(p.Threads) * uint64(iters) * uint64(shape.critWords)
	wantCAS := uint64(0)
	if shape.casAccums > 0 {
		wantCAS = uint64(p.Threads) * uint64(iters)
	}
	inst.Validate = func(data *memory.Store) error {
		var crit uint64
		for l := 0; l < shape.locks; l++ {
			for w := 0; w < shape.critWords; w++ {
				crit += data.Load(cell(l, w))
			}
		}
		if crit != wantCrit {
			return fmt.Errorf("splash: %d critical-section updates, want %d (mutual exclusion broken)", crit, wantCrit)
		}
		var cas uint64
		for a := 0; a < shape.casAccums; a++ {
			cas += data.Load(word(accums, a))
		}
		if cas != wantCAS {
			return fmt.Errorf("splash: %d CAS updates, want %d", cas, wantCAS)
		}
		return nil
	}
	return inst, nil
}

// radiosityResults is Radiosity's per-task result cell count at scale 1
// (a 163 KB-class footprint).
const radiosityResults = 2600

// buildRadiosity models Radiosity's defining structure (Section VI-B): a
// shared task queue behind a single highly contended mutex, read before
// acquisition, with moderate per-task work — the ping-pong pattern where
// far AMOs win.
func buildRadiosity(p Params) (*Instance, error) {
	nResults := p.scaled(radiosityResults)
	alloc := NewAlloc()
	queueLock := NewNamedMutex(alloc, "queue-lock")
	head := alloc.NamedLines("queue-head", 1)        // queue head index
	processed := alloc.NamedLines("processed", 1)    // completed-task count
	results := alloc.NamedLines("results", nResults) // per-task result cells
	totalTasks := p.Threads * p.scaled(40)
	inst := &Instance{
		AMOFootprintBytes: int64(nResults)*memory.LineSize + 2*memory.LineSize,
		Sites:             alloc.Sites(),
	}
	for i := 0; i < p.Threads; i++ {
		inst.Programs = append(inst.Programs, func(t *cpu.Thread) {
			for {
				// Dequeue under the hot lock.
				queueLock.Lock(t)
				task := t.Load(head)
				if task < uint64(totalTasks) {
					t.Store(head, task+1)
				}
				queueLock.Unlock(t)
				if task >= uint64(totalTasks) {
					break
				}
				// Process: local work plus a scatter into the result grid.
				t.Compute(1400)
				r := results + memory.Addr(int(task)%nResults)*memory.LineSize
				t.AMOStore(memory.AMOAdd, r, 1)
				t.AMOStore(memory.AMOAdd, processed, 1)
			}
			t.Fence()
		})
	}
	inst.Validate = func(data *memory.Store) error {
		if got := data.Load(processed); got != uint64(totalTasks) {
			return fmt.Errorf("radiosity: processed %d tasks, want %d", got, totalTasks)
		}
		var sum uint64
		for i := 0; i < nResults; i++ {
			sum += data.Load(results + memory.Addr(i)*memory.LineSize)
		}
		if sum != uint64(totalTasks) {
			return fmt.Errorf("radiosity: %d result updates, want %d", sum, totalTasks)
		}
		return nil
	}
	return inst, nil
}

func registerSplash(name, code string, class Class, sync string, shape splashShape) {
	register(&Spec{
		Name:  name,
		Code:  code,
		Suite: "Splash-3",
		Sync:  sync,
		Class: class,
		build: func(p Params) (*Instance, error) { return buildSplash(shape.at(p), p) },
		footprint: func(p Params) int64 {
			s := shape.at(p)
			return int64(s.locks)*memory.LineSize + int64(s.casAccums)*8
		},
	})
}

func init() {
	registerSplash("barnes", "BAR", Low, "POSIX mutex", splashShape{
		locks: 320, iters: 60, compute: 1100, privateWords: 512,
		privateTouches: 10, critWords: 2, hotFrac: 0.05,
	})
	registerSplash("fmm", "FMM", Low, "POSIX mutex", splashShape{
		locks: 384, iters: 60, compute: 1200, privateWords: 640,
		privateTouches: 10, critWords: 2, hotFrac: 0.04,
	})
	registerSplash("ocean", "OCE", Low, "POSIX mutex", splashShape{
		locks: 64, iters: 70, compute: 1800, privateWords: 2048,
		privateTouches: 14, critWords: 1, hotFrac: 0.10,
	})
	registerSplash("raytrace", "RAY", Low, "POSIX mutex", splashShape{
		locks: 128, iters: 65, compute: 2800, privateWords: 384,
		privateTouches: 12, critWords: 1, hotFrac: 0.05,
	})
	registerSplash("volrend", "VOL", Low, "POSIX mutex", splashShape{
		locks: 96, iters: 65, compute: 4200, privateWords: 448,
		privateTouches: 10, critWords: 1, hotFrac: 0.08,
	})
	registerSplash("water", "WAT", Low, "POSIX mutex, cas", splashShape{
		locks: 256, iters: 55, compute: 1700, privateWords: 512,
		privateTouches: 10, critWords: 1, hotFrac: 0.05, casAccums: 768,
	})
	register(&Spec{
		Name:  "radiosity",
		Code:  "RAD",
		Suite: "Splash-3",
		Sync:  "POSIX mutex",
		Class: Medium,
		build: buildRadiosity,
		footprint: func(p Params) int64 {
			return int64(p.scaled(radiosityResults))*memory.LineSize + 2*memory.LineSize
		},
	})
}
