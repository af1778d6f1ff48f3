package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"dynamo/internal/checkpoint"
	"dynamo/internal/core"
	"dynamo/internal/cpu"
	"dynamo/internal/memory"
	"dynamo/internal/obs"
)

// waitFn waits until the word at a reads want, pausing between polls.
type waitFn func(th *cpu.Thread, a memory.Addr, want uint64, pause int)

// loopWait is the explicit loop SpinUntil stands for.
func loopWait(th *cpu.Thread, a memory.Addr, want uint64, pause int) {
	for th.Load(a) != want {
		th.Pause(pause)
	}
}

func spinWait(th *cpu.Thread, a memory.Addr, want uint64, pause int) { th.SpinUntil(a, want, pause) }

// spinPrograms are the synchronization patterns whose waits SpinUntil
// replaces, each written once over a waitFn and run by four threads.
var spinPrograms = []struct {
	name string
	prog func(wait waitFn) cpu.Program
}{
	// A sense-reversing barrier: a fetch-add counter and a sense word on
	// separate lines, with skewed arrivals.
	{"barrier", func(wait waitFn) cpu.Program {
		const count, sense = 0x10000, 0x10040
		return func(th *cpu.Thread) {
			local := uint64(0)
			for r := 0; r < 6; r++ {
				th.Compute(10 + 37*((th.ID()+r)%4))
				local ^= 1
				if th.AMO(memory.AMOAdd, count, 1) == 3 {
					th.Store(count, 0)
					th.StoreRelease(sense, local)
					continue
				}
				wait(th, sense, local, 40)
			}
		}
	}},
	// The Pthread mutex of Fig. 4: lock, owner, kind and users on one line.
	{"mutex", func(wait waitFn) cpu.Program {
		const lock, cell = 0x20000, 0x20040
		return func(th *cpu.Thread) {
			id := uint64(th.ID()) + 1
			for k := 0; k < 6; k++ {
				th.Load(lock + 16)
				for th.CAS(lock, 0, id) != 0 {
					wait(th, lock, 0, 12)
				}
				th.Load(lock + 8)
				th.Store(lock+8, id)
				th.Store(lock+24, 1)
				v := th.Load(cell)
				th.Compute(8)
				th.Store(cell, v+1)
				th.Load(lock + 16)
				th.Store(lock+24, 0)
				th.Store(lock+8, 0)
				th.Fence()
				th.AMOStore(memory.AMOSwap, lock, 0)
				th.Compute(20)
			}
			th.Fence()
		}
	}},
	// A test-and-test-and-set spinlock, alone on its line.
	{"spinlock", func(wait waitFn) cpu.Program {
		const lock, cell = 0x30000, 0x30040
		return func(th *cpu.Thread) {
			for k := 0; k < 6; k++ {
				for th.CAS(lock, 0, 1) != 0 {
					wait(th, lock, 0, 8)
				}
				v := th.Load(cell)
				th.Compute(8)
				th.Store(cell, v+1)
				th.Fence()
				th.AMOStore(memory.AMOSwap, lock, 0)
				th.Compute(10)
			}
			th.Fence()
		}
	}},
	// The far-friendly mutex: the lock word alone, the metadata on a
	// second line.
	{"far-mutex", func(wait waitFn) cpu.Program {
		const lock, meta, cell = 0x40000, 0x40040, 0x40080
		return func(th *cpu.Thread) {
			id := uint64(th.ID()) + 1
			for k := 0; k < 6; k++ {
				th.Load(meta)
				for th.CAS(lock, 0, id) != 0 {
					wait(th, lock, 0, 12)
				}
				th.Load(meta + 8)
				th.Store(meta+8, id)
				th.Store(meta+16, 1)
				v := th.Load(cell)
				th.Compute(8)
				th.Store(cell, v+1)
				th.Load(meta)
				th.Store(meta+16, 0)
				th.Store(meta+8, 0)
				th.Fence()
				th.AMOStore(memory.AMOSwap, lock, 0)
				th.Compute(20)
			}
			th.Fence()
		}
	}},
	// CAS retry: every round each thread adds one to a counter with a
	// load/CAS retry loop, and the thread that completes the round raises
	// a round flag the others wait on without pausing.
	{"cas-retry", func(wait waitFn) cpu.Program {
		const counter, round = 0x50000, 0x50040
		return func(th *cpu.Thread) {
			for r := uint64(0); r < 5; r++ {
				th.Compute(5 * th.ID())
				for {
					v := th.Load(counter)
					if th.CAS(counter, v, v+1) == v {
						if v+1 == 4*(r+1) {
							th.Store(round, r+1)
						}
						break
					}
				}
				wait(th, round, r+1, 0)
			}
			th.Fence()
		}
	}},
	// A ping-pong on one word in which each side stores to the word and
	// at once polls it, so its first poll stalls behind its own posted
	// store; one side polls without pausing. Threads 2 and 3 only compute,
	// so every load-order stall of this program is a poll's.
	{"pingpong", func(wait waitFn) cpu.Program {
		const word = 0x60000
		return func(th *cpu.Thread) {
			for r := uint64(0); r < 6; r++ {
				switch th.ID() {
				case 0:
					th.Store(word, 2*r+2)
					wait(th, word, 2*r+3, 0)
				case 1:
					wait(th, word, 2*r+2, 5)
					th.Compute(30)
					th.Store(word, 2*r+3)
				default:
					th.Compute(50)
				}
			}
			th.Fence()
		}
	}},
}

// spinRun is one run of a spin program under a policy and chaos level.
type spinRun struct {
	result []byte
	ops    []cpu.ObservedOp
	// ckpts holds each periodic checkpoint as Write serialized it, and
	// midSpin whether some core was then inside a SpinUntil it had polled
	// for at least twice.
	ckpts   [][]byte
	midSpin []bool
	// loadStalls counts the loads that stalled behind their own core's
	// posted store to the word.
	loadStalls uint64
}

const spinCkptEvery = 250

func spinConfig(policy string, level int) Config {
	cfg := smallConfig(policy)
	if level > 0 {
		cfg.ChaosSeed, cfg.ChaosLevel = int64(level)*7+1, level
	}
	cfg.Obs = obs.New(obs.Options{})
	return cfg
}

// runSpin runs four threads of prog with wait, recording the observed
// operations and the periodic checkpoints.
func runSpin(t *testing.T, prog func(waitFn) cpu.Program, wait waitFn, policy string, level int) spinRun {
	t.Helper()
	var run spinRun
	// inSpin and polls follow each thread's wait: inSpin is set while the
	// program is inside it, polls counts the loads the core has executed
	// on the waited word since the program entered it.
	var inSpin [4]bool
	var polls [4]int
	var waited [4]memory.Addr
	tracked := func(th *cpu.Thread, a memory.Addr, want uint64, pause int) {
		id := th.ID()
		inSpin[id], polls[id], waited[id] = true, 0, a
		wait(th, a, want, pause)
		inSpin[id] = false
	}
	cfg := spinConfig(policy, level)
	cfg.CPU.Observe = func(o cpu.ObservedOp) {
		run.ops = append(run.ops, o)
		if o.Load && inSpin[o.Core] && o.Addr == waited[o.Core] {
			polls[o.Core]++
		}
	}
	cfg.CkptEvery = spinCkptEvery
	cfg.CkptSink = func(ck *checkpoint.Checkpoint) {
		var buf bytes.Buffer
		if err := checkpoint.Write(&buf, ck); err != nil {
			t.Fatal(err)
		}
		mid := false
		for i := range inSpin {
			mid = mid || inSpin[i] && polls[i] >= 2
		}
		run.ckpts = append(run.ckpts, buf.Bytes())
		run.midSpin = append(run.midSpin, mid)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(spinPrograms4(prog, tracked))
	if err != nil {
		t.Fatal(err)
	}
	if run.result, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Obs.Spans {
		if h.Name == "stall:load-order" {
			run.loadStalls = h.Count
		}
	}
	return run
}

func spinPrograms4(prog func(waitFn) cpu.Program, wait waitFn) []cpu.Program {
	progs := make([]cpu.Program, 4)
	for i := range progs {
		progs[i] = prog(wait)
	}
	return progs
}

// SpinUntil is a rewrite of the explicit wait loop that must move no
// simulated byte. Every spin program runs both ways under every registered
// policy and chaos levels 0-3, and the two runs must agree on the result
// (stall spans included), every executed operation and every periodic
// checkpoint. The ping-pong's polls must stall behind their own core's
// store. A run resumed from a checkpoint taken while a core was spinning
// must end with the uninterrupted run's result.
func TestSpinUntilMatchesLoop(t *testing.T) {
	resumed := 0
	for _, sp := range spinPrograms {
		for _, policy := range core.Names() {
			for level := 0; level <= 3; level++ {
				t.Run(fmt.Sprintf("%s/%s/chaos%d", sp.name, policy, level), func(t *testing.T) {
					loop := runSpin(t, sp.prog, loopWait, policy, level)
					spin := runSpin(t, sp.prog, spinWait, policy, level)
					if !bytes.Equal(loop.result, spin.result) {
						t.Fatalf("results differ:\nloop      %s\nSpinUntil %s", loop.result, spin.result)
					}
					if !slices.Equal(loop.ops, spin.ops) {
						t.Fatalf("SpinUntil executed %d operations, the loop %d, or others", len(spin.ops), len(loop.ops))
					}
					if len(loop.ckpts) == 0 || !slices.EqualFunc(loop.ckpts, spin.ckpts, bytes.Equal) {
						t.Fatalf("checkpoints differ: %d with the loop, %d with SpinUntil", len(loop.ckpts), len(spin.ckpts))
					}
					if sp.name == "pingpong" && spin.loadStalls == 0 {
						t.Fatal("no poll stalled behind its own core's store")
					}
					i := slices.Index(spin.midSpin, true)
					if i < 0 {
						return
					}
					resumed++
					ck, err := Restore(bytes.NewReader(spin.ckpts[i]))
					if err != nil {
						t.Fatal(err)
					}
					m, err := New(spinConfig(policy, level))
					if err != nil {
						t.Fatal(err)
					}
					res, err := m.RunFrom(spinPrograms4(sp.prog, spinWait), ck)
					if err != nil {
						t.Fatal(err)
					}
					got, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, spin.result) {
						t.Fatalf("run resumed mid-spin at event %d diverged:\n%s\n%s", ck.Event, got, spin.result)
					}
				})
			}
		}
	}
	if want := len(spinPrograms) * len(core.Names()); resumed < want {
		t.Errorf("resumed %d runs from a checkpoint taken mid-spin, want at least %d", resumed, want)
	}
}
