package workload

import (
	"dynamo/internal/cpu"
	"dynamo/internal/memory"
)

// Mutex emulates the Pthread mutex of Fig. 4: all four data members share
// one cache block, and the acquire/release sequences follow the figure
// step by step (read Kind, CAS Lock, write Owner and NUsers; read Kind,
// write NUsers and Owner, SWAP Lock). This layout is what makes mutexes
// favor near AMOs (Section III-B3).
type Mutex struct {
	base memory.Addr
}

// Field offsets within the mutex cache block.
const (
	mtxLock   = 0
	mtxOwner  = 8
	mtxKind   = 16
	mtxNUsers = 24
)

// NewMutex allocates a mutex on its own cache line.
func NewMutex(a *Alloc) Mutex { return NewNamedMutex(a, "mutex") }

// NewNamedMutex allocates a mutex tagged with a site name for contention
// profiles.
func NewNamedMutex(a *Alloc, name string) Mutex {
	return Mutex{base: a.NamedLines(name, 1)}
}

// NewNamedMutexes allocates n mutexes on consecutive lines, tagging the
// whole array as one named site.
func NewNamedMutexes(a *Alloc, name string, n int) []Mutex {
	base := a.NamedLines(name, n)
	ms := make([]Mutex, n)
	for i := range ms {
		ms[i] = Mutex{base: base + memory.Addr(i)*memory.LineSize}
	}
	return ms
}

// Lock acquires the mutex, spinning with reads between CAS attempts (the
// read-before-AMO pattern the paper observes in Radiosity).
func (m Mutex) Lock(t *cpu.Thread) {
	t.Load(m.base + mtxKind)
	for t.CAS(m.base+mtxLock, 0, uint64(t.ID())+1) != 0 {
		t.SpinUntil(m.base+mtxLock, 0, 12)
	}
	t.Load(m.base + mtxOwner)
	t.Store(m.base+mtxOwner, uint64(t.ID())+1)
	t.Store(m.base+mtxNUsers, 1)
}

// Unlock releases the mutex with a SWAP AtomicStore, after the bookkeeping
// writes of Fig. 4 and a release fence.
func (m Mutex) Unlock(t *cpu.Thread) {
	t.Load(m.base + mtxKind)
	t.Store(m.base+mtxNUsers, 0)
	t.Store(m.base+mtxOwner, 0)
	t.Fence()
	t.AMOStore(memory.AMOSwap, m.base+mtxLock, 0)
}

// SpinLock is the Galois-style test-and-test-and-set lock: a single lock
// word alone on its cache line, acquired with CAS and released with a SWAP
// AtomicStore.
type SpinLock struct {
	addr memory.Addr
}

// NewSpinLock allocates a spinlock on its own line.
func NewSpinLock(a *Alloc) SpinLock { return NewNamedSpinLock(a, "spinlock") }

// NewNamedSpinLock allocates a spinlock tagged with a site name.
func NewNamedSpinLock(a *Alloc, name string) SpinLock {
	return SpinLock{addr: a.NamedLines(name, 1)}
}

// NewNamedSpinLocks allocates n spinlocks, tagging the array as one site.
func NewNamedSpinLocks(a *Alloc, name string, n int) []SpinLock {
	base := a.NamedLines(name, n)
	ls := make([]SpinLock, n)
	for i := range ls {
		ls[i] = SpinLock{addr: base + memory.Addr(i)*memory.LineSize}
	}
	return ls
}

// Lock acquires the spinlock.
func (l SpinLock) Lock(t *cpu.Thread) {
	for t.CAS(l.addr, 0, 1) != 0 {
		t.SpinUntil(l.addr, 0, 8)
	}
}

// Unlock releases the spinlock.
func (l SpinLock) Unlock(t *cpu.Thread) {
	t.Fence()
	t.AMOStore(memory.AMOSwap, l.addr, 0)
}

// Barrier is a sense-reversing centralized barrier built on a fetch-add
// counter and a sense flag, the construction behind POSIX barriers
// (Table III lists "POSIX barrier, stadd" for Radix Sort).
type Barrier struct {
	count memory.Addr
	sense memory.Addr
	n     uint64
}

// NewBarrier allocates a barrier for n threads; the counter and the sense
// word live on separate lines to avoid false sharing between the adder and
// the spinners.
func NewBarrier(a *Alloc, n int) *Barrier {
	return &Barrier{
		count: a.NamedLines("barrier.count", 1),
		sense: a.NamedLines("barrier.sense", 1),
		n:     uint64(n),
	}
}

// Wait blocks thread t until all n threads arrive. sense is the thread's
// local sense word and must start at 0.
func (b *Barrier) Wait(t *cpu.Thread, sense *uint64) {
	*sense ^= 1
	if t.AMO(memory.AMOAdd, b.count, 1) == b.n-1 {
		t.Store(b.count, 0)
		t.StoreRelease(b.sense, *sense)
		return
	}
	t.SpinUntil(b.sense, *sense, 40)
}

// FarMutex is the far-AMO-friendly mutex layout Section III-B3 calls for
// as future work: the lock word lives alone on its own cache line, and the
// Owner/NUsers/Kind metadata lives on a second line. Far CAS/SWAP on the
// lock no longer invalidate the metadata the acquire and release paths
// read and write, so far execution of the lock operations becomes
// competitive with near execution even under the POSIX access sequence.
type FarMutex struct {
	lock memory.Addr
	meta memory.Addr // Kind at +0, Owner at +8, NUsers at +16
}

// NewFarMutex allocates a far-friendly mutex (two cache lines).
func NewFarMutex(a *Alloc) FarMutex {
	return FarMutex{
		lock: a.NamedLines("far-mutex.lock", 1),
		meta: a.NamedLines("far-mutex.meta", 1),
	}
}

// Lock acquires the mutex with the same logical sequence as Mutex.Lock,
// but the CAS target shares no line with the metadata.
func (m FarMutex) Lock(t *cpu.Thread) {
	t.Load(m.meta) // Kind
	for t.CAS(m.lock, 0, uint64(t.ID())+1) != 0 {
		t.SpinUntil(m.lock, 0, 12)
	}
	t.Load(m.meta + 8)
	t.Store(m.meta+8, uint64(t.ID())+1) // Owner
	t.Store(m.meta+16, 1)               // NUsers
}

// Unlock releases the mutex.
func (m FarMutex) Unlock(t *cpu.Thread) {
	t.Load(m.meta) // Kind
	t.Store(m.meta+16, 0)
	t.Store(m.meta+8, 0)
	t.Fence()
	t.AMOStore(memory.AMOSwap, m.lock, 0)
}
