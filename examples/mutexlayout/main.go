// Mutex layout study: Section III-B3 shows the POSIX mutex layout (Fig. 4:
// Kind, Lock, Owner and NUsers on one cache block) makes far AMO execution
// lose — the far CAS/SWAP invalidate the very line the surrounding
// accesses need — and calls for a far-friendly layout as future work. This
// example measures both layouts under near and far lock placement, using
// this repository's implementation of that future-work layout.
package main

import (
	"fmt"
	"log"

	"dynamo"
	"dynamo/internal/memory"
)

const (
	threads = 4
	iters   = 120
)

// run executes a lock/unlock loop with light critical sections and
// returns the cycle count. layoutFar selects the split (far-friendly)
// layout; policy selects where the lock AMOs execute.
func run(layoutFar bool, policy string) uint64 {
	s, err := dynamo.New(dynamo.DefaultConfig(), dynamo.WithPolicy(policy))
	if err != nil {
		log.Fatal(err)
	}

	// The two layouts, built inline against the public Thread API with
	// the exact access sequences of Fig. 4.
	const lockLine = 0x200000
	const metaLine = 0x200040 // same line as the lock in the POSIX layout
	lockAddr := uint64(lockLine)
	metaBase := uint64(lockLine + 8) // Owner at +8, Kind at +16, NUsers at +24
	if layoutFar {
		metaBase = uint64(metaLine)
	}
	counter := uint64(0x201000)

	prog := func(th *dynamo.Thread) {
		for i := 0; i < iters; i++ {
			// Acquire: read Kind, CAS Lock, write Owner and NUsers.
			th.Load(memory.Addr(metaBase + 8))
			for th.CAS(memory.Addr(lockAddr), 0, uint64(th.ID())+1) != 0 {
				th.SpinUntil(memory.Addr(lockAddr), 0, 12)
			}
			th.Store(memory.Addr(metaBase), uint64(th.ID())+1)
			th.Store(memory.Addr(metaBase+16), 1)
			// Critical section.
			v := th.Load(memory.Addr(counter))
			th.Compute(10)
			th.Store(memory.Addr(counter), v+1)
			// Release: read Kind, clear NUsers and Owner, SWAP Lock.
			th.Load(memory.Addr(metaBase + 8))
			th.Store(memory.Addr(metaBase+16), 0)
			th.Store(memory.Addr(metaBase), 0)
			th.Fence()
			th.AMOStore(memory.AMOSwap, memory.Addr(lockAddr), 0)
			th.Compute(900)
		}
	}
	progs := make([]dynamo.Program, threads)
	for i := range progs {
		progs[i] = prog
	}
	res, read, err := s.RunPrograms(progs)
	if err != nil {
		log.Fatal(err)
	}
	if got := read(counter); got != uint64(threads*iters) {
		log.Fatalf("mutual exclusion broken: %d != %d", got, threads*iters)
	}
	return uint64(res.Cycles)
}

func main() {
	fmt.Printf("POSIX mutex layouts, %d threads x %d lock/unlock pairs\n\n", threads, iters)
	fmt.Printf("%-28s %-12s %-12s\n", "layout", "near locks", "far locks")
	for _, layout := range []struct {
		name string
		far  bool
	}{
		{"Fig. 4 (one cache block)", false},
		{"split (far-friendly)", true},
	} {
		near := run(layout.far, "all-near")
		far := run(layout.far, "unique-near")
		fmt.Printf("%-28s %-12d %-12d\n", layout.name, near, far)
	}
	fmt.Println()
	fmt.Println("With the Fig. 4 layout, sending the lock AMOs far invalidates the")
	fmt.Println("block the Kind/Owner/NUsers accesses need, so far execution loses —")
	fmt.Println("the paper's argument for why Pthread mutexes favor near AMOs. The")
	fmt.Println("split layout (the paper's suggested future work, implemented in")
	fmt.Println("internal/workload as FarMutex) removes that coupling.")
}
