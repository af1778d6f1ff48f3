package workload

import (
	"fmt"
	"math/rand"

	"dynamo/internal/cpu"
	"dynamo/internal/graph"
	"dynamo/internal/memory"
)

// inf is the unreached-distance sentinel used by the graph workloads.
const inf = ^uint64(0)

// simGraph is a CSR graph laid out in simulated memory; programs traverse
// it with real loads so the graph structure competes for cache space with
// the AMO-updated arrays, which is what creates the paper's mixed access
// patterns.
type simGraph struct {
	g       *graph.Graph
	offsets memory.Addr
	edges   memory.Addr
	weights memory.Addr
}

// graphInput is a workload's input graph before generation: a w×h road
// grid (graph.Grid), or, when kron is set, a Kronecker graph of 2^kron
// nodes (graph.Kronecker). Builders generate it; footprints need only its
// node count.
type graphInput struct {
	w, h, kron, edgeFactor int
	seed                   int64
}

func grid(w, h int, seed int64) graphInput { return graphInput{w: w, h: h, seed: seed} }

func kronecker(scale, edgeFactor int, seed int64) graphInput {
	return graphInput{kron: scale, edgeFactor: edgeFactor, seed: seed}
}

// nodes is the generated graph's node count.
func (in graphInput) nodes() int {
	if in.kron > 0 {
		return 1 << in.kron
	}
	return in.w * in.h
}

func (in graphInput) generate() *graph.Graph {
	if in.kron > 0 {
		return graph.Kronecker(in.kron, in.edgeFactor, in.seed)
	}
	return graph.Grid(in.w, in.h, in.seed)
}

// perNode is the footprint of a graph workload whose AMO-updated arrays
// hold bytes per node of its input graph.
func perNode(input func(Params) graphInput, bytes int64) func(Params) int64 {
	return func(p Params) int64 { return int64(input(p).nodes()) * bytes }
}

// The Galois workloads' input graphs.
func bfsGraph(p Params) graphInput      { return grid(p.scaled(44), 30, p.Seed) }
func ssspGraph(p Params) graphInput     { return grid(p.scaled(40), 30, p.Seed+1) }
func sptGraph(p Params) graphInput      { return kronecker(10, p.scaled(5), p.Seed+2) }
func ccGraph(p Params) graphInput       { return kronecker(10, p.scaled(4), p.Seed+3) }
func pagerankGraph(p Params) graphInput { return kronecker(9, p.scaled(6), p.Seed+4) }
func kcoreGraph(p Params) graphInput    { return kronecker(10, p.scaled(4), p.Seed+5) }
func gmetisGraph(p Params) graphInput   { return grid(p.scaled(42), 42, p.Seed+6) }

func layoutGraph(a *Alloc, g *graph.Graph) *simGraph {
	sg := &simGraph{g: g}
	sg.offsets = a.NamedWords("csr-offsets", g.N+1)
	sg.edges = a.NamedWords("csr-edges", g.M())
	if g.Weights != nil {
		sg.weights = a.NamedWords("csr-weights", g.M())
	}
	return sg
}

func (sg *simGraph) setup(data *memory.Store) {
	for i, o := range sg.g.Offsets {
		data.StoreWord(word(sg.offsets, i), uint64(o))
	}
	for i, e := range sg.g.Edges {
		data.StoreWord(word(sg.edges, i), uint64(e))
	}
	for i, w := range sg.g.Weights {
		data.StoreWord(word(sg.weights, i), uint64(w))
	}
}

// adjacency loads the CSR edge range of u.
func (sg *simGraph) adjacency(t *cpu.Thread, u int) (lo, hi int) {
	return int(t.Load(word(sg.offsets, u))), int(t.Load(word(sg.offsets, u+1)))
}

func (sg *simGraph) edgeAt(t *cpu.Thread, i int) int {
	return int(t.Load(word(sg.edges, i)))
}

func (sg *simGraph) weightAt(t *cpu.Thread, i int) uint64 {
	return t.Load(word(sg.weights, i))
}

// buildBFS is the Galois BFS analog: level-synchronized traversal where
// distance relaxation uses ldmin (a value-returning atomic min) and
// frontier appends use ldadd, on a road-network-like graph.
func buildBFS(p Params) (*Instance, error) {
	g := bfsGraph(p).generate()
	alloc := NewAlloc()
	sg := layoutGraph(alloc, g)
	dist := alloc.NamedWords("dist", g.N)
	bufs := [2]memory.Addr{alloc.NamedWords("frontier-a", g.N), alloc.NamedWords("frontier-b", g.N)}
	sizes := [2]memory.Addr{alloc.NamedLines("frontier-size-a", 1), alloc.NamedLines("frontier-size-b", 1)}
	bar := NewBarrier(alloc, p.Threads)
	const src = 0
	inst := &Instance{AMOFootprintBytes: int64(g.N) * 8, Sites: alloc.Sites()}
	inst.Setup = func(data *memory.Store) {
		sg.setup(data)
		for v := 0; v < g.N; v++ {
			data.StoreWord(word(dist, v), inf)
		}
		data.StoreWord(word(dist, src), 0)
		data.StoreWord(word(bufs[0], 0), src)
		data.StoreWord(sizes[0], 1)
	}
	for i := 0; i < p.Threads; i++ {
		tid := i
		inst.Programs = append(inst.Programs, func(t *cpu.Thread) {
			sense := uint64(0)
			par := 0
			for {
				n := int(t.Load(sizes[par]))
				if n == 0 {
					break
				}
				cur, next := bufs[par], bufs[par^1]
				nextSize := sizes[par^1]
				lo, hi := chunk(n, p.Threads, tid)
				for i := lo; i < hi; i++ {
					u := int(t.Load(word(cur, i)))
					du := t.Load(word(dist, u))
					elo, ehi := sg.adjacency(t, u)
					for e := elo; e < ehi; e++ {
						v := sg.edgeAt(t, e)
						t.Compute(250)
						// Read before updating: skip the AMO when the
						// distance cannot improve (the guard the paper
						// observes in BFS/CC/PR/KCORE).
						if t.Load(word(dist, v)) <= du+1 {
							continue
						}
						old := t.AMO(memory.AMOUMin, word(dist, v), du+1) // ldmin
						if old == inf {
							idx := t.AMO(memory.AMOAdd, nextSize, 1) // ldadd
							t.Store(word(next, int(idx)), uint64(v))
						}
					}
				}
				t.Fence()
				bar.Wait(t, &sense)
				if tid == 0 {
					t.Store(sizes[par], 0)
					t.Fence()
				}
				bar.Wait(t, &sense)
				par ^= 1
			}
			t.Fence()
		})
	}
	ref := graph.BFS(g, src)
	inst.Validate = func(data *memory.Store) error {
		for v := 0; v < g.N; v++ {
			got := data.Load(word(dist, v))
			want := uint64(ref[v])
			if ref[v] == -1 {
				want = inf
			}
			if got != want {
				return fmt.Errorf("bfs: dist[%d] = %d, want %d", v, got, want)
			}
		}
		return nil
	}
	return inst, nil
}

// roundFlag coordinates convergence rounds without reset races: writers
// stamp the flag with the round number via a UMax AtomicStore; readers
// compare after a barrier.
type roundFlag struct {
	addr memory.Addr
}

func (f roundFlag) mark(t *cpu.Thread, round int) {
	t.AMOStore(memory.AMOUMax, f.addr, uint64(round)+1)
}

func (f roundFlag) marked(t *cpu.Thread, round int) bool {
	return t.Load(f.addr) == uint64(round)+1
}

// buildSPFA builds a frontier-driven shortest-path workload (SPFA /
// Bellman-Ford-with-worklist, the structure of Galois' SSSP): active nodes
// relax their edges, improved targets are deduplicated through an in-queue
// word claimed with an atomic swap and appended to the next frontier with
// ldadd. useCAS selects CAS-retry relaxations (SPT) over guarded stmin
// AtomicStores (SSSP). perEdge is the per-relaxation local work.
func buildSPFA(p Params, g *graph.Graph, wt func(u, e int) uint64,
	useCAS bool, perEdge int, name string) (*Instance, error) {
	alloc := NewAlloc()
	sg := layoutGraph(alloc, g)
	dist := alloc.NamedWords("dist", g.N)
	inq := alloc.NamedWords("inq", g.N)
	bufs := [2]memory.Addr{alloc.NamedWords("frontier-a", g.N), alloc.NamedWords("frontier-b", g.N)}
	sizes := [2]memory.Addr{alloc.NamedLines("frontier-size-a", 1), alloc.NamedLines("frontier-size-b", 1)}
	bar := NewBarrier(alloc, p.Threads)
	const src = 0
	inst := &Instance{AMOFootprintBytes: int64(g.N) * 16, Sites: alloc.Sites()}
	inst.Setup = func(data *memory.Store) {
		sg.setup(data)
		for v := 0; v < g.N; v++ {
			data.StoreWord(word(dist, v), inf)
		}
		data.StoreWord(word(dist, src), 0)
		data.StoreWord(word(inq, src), 1)
		data.StoreWord(word(bufs[0], 0), src)
		data.StoreWord(sizes[0], 1)
	}
	for i := 0; i < p.Threads; i++ {
		tid := i
		inst.Programs = append(inst.Programs, func(t *cpu.Thread) {
			sense := uint64(0)
			par := 0
			for {
				n := int(t.Load(sizes[par]))
				if n == 0 {
					break
				}
				cur, next := bufs[par], bufs[par^1]
				nextSize := sizes[par^1]
				lo, hi := chunk(n, p.Threads, tid)
				for i := lo; i < hi; i++ {
					u := int(t.Load(word(cur, i)))
					// Leave the queue before reading the distance; the
					// blocking swap orders the two, so any later
					// improvement re-queues u.
					t.AMO(memory.AMOSwap, word(inq, u), 0)
					du := t.Load(word(dist, u))
					elo, ehi := sg.adjacency(t, u)
					for e := elo; e < ehi; e++ {
						v := sg.edgeAt(t, e)
						nd := du + wt(u, e)
						t.Compute(perEdge)
						dv := t.Load(word(dist, v))
						improved := false
						if useCAS {
							for nd < dv {
								old := t.CAS(word(dist, v), dv, nd)
								if old == dv {
									improved = true
									break
								}
								dv = old
							}
						} else if nd < dv {
							t.AMOStore(memory.AMOUMin, word(dist, v), nd) // stmin
							// Order the update before the queue claim so a
							// concurrent processor of v cannot miss it.
							t.Fence()
							improved = true
						}
						if improved && t.AMO(memory.AMOSwap, word(inq, v), 1) == 0 {
							idx := t.AMO(memory.AMOAdd, nextSize, 1) // ldadd
							t.Store(word(next, int(idx)), uint64(v))
						}
					}
				}
				t.Fence()
				bar.Wait(t, &sense)
				if tid == 0 {
					t.Store(sizes[par], 0)
					t.Fence()
				}
				bar.Wait(t, &sense)
				par ^= 1
			}
			t.Fence()
		})
	}
	// Reference distances with the same weights.
	refG := &graph.Graph{N: g.N, Offsets: g.Offsets, Edges: g.Edges, Weights: make([]int32, g.M())}
	for u := 0; u < g.N; u++ {
		for e := int(g.Offsets[u]); e < int(g.Offsets[u+1]); e++ {
			refG.Weights[e] = int32(wt(u, e))
		}
	}
	ref := graph.SSSP(refG, src)
	inst.Validate = func(data *memory.Store) error {
		for v := 0; v < g.N; v++ {
			got := data.Load(word(dist, v))
			want := uint64(ref[v])
			if ref[v] == -1 {
				want = inf
			}
			if got != want {
				return fmt.Errorf("%s: dist[%d] = %d, want %d", name, v, got, want)
			}
		}
		return nil
	}
	return inst, nil
}

// buildSSSP is the Galois SSSP analog: worklist-driven shortest paths with
// stmin (no-return atomic min) relaxations guarded by a read of the target
// distance, on a weighted road-network graph.
func buildSSSP(p Params) (*Instance, error) {
	g := ssspGraph(p).generate()
	wt := func(u, e int) uint64 { return uint64(g.Weights[e]) }
	return buildSPFA(p, g, wt, false, 30, "sssp")
}

// buildSPT is the SPT analog: the same shortest-path computation but with
// CAS-retry relaxations (read the distance, CAS if improved — the
// read-reuse pattern of Fig. 3b), on a weighted power-law graph.
func buildSPT(p Params) (*Instance, error) {
	g := sptGraph(p).generate()
	// Deterministic per-edge weights derived from endpoints (the Kronecker
	// generator is unweighted).
	wt := func(u, e int) uint64 {
		return uint64((u*31+int(g.Edges[e])*17)%9 + 1)
	}
	return buildSPFA(p, g, wt, true, 20, "spt")
}

// buildCC is the Galois connected-components analog: frontier-driven
// min-label propagation with ldmin relaxations.
func buildCC(p Params) (*Instance, error) {
	g := ccGraph(p).generate()
	alloc := NewAlloc()
	sg := layoutGraph(alloc, g)
	label := alloc.NamedWords("label", g.N)
	bufs := [2]memory.Addr{alloc.NamedWords("frontier-a", g.M()+g.N), alloc.NamedWords("frontier-b", g.M()+g.N)}
	sizes := [2]memory.Addr{alloc.NamedLines("frontier-size-a", 1), alloc.NamedLines("frontier-size-b", 1)}
	bar := NewBarrier(alloc, p.Threads)
	inst := &Instance{AMOFootprintBytes: int64(g.N) * 8, Sites: alloc.Sites()}
	inst.Setup = func(data *memory.Store) {
		sg.setup(data)
		for v := 0; v < g.N; v++ {
			data.StoreWord(word(label, v), uint64(v))
			data.StoreWord(word(bufs[0], v), uint64(v))
		}
		data.StoreWord(sizes[0], uint64(g.N))
	}
	for i := 0; i < p.Threads; i++ {
		tid := i
		inst.Programs = append(inst.Programs, func(t *cpu.Thread) {
			sense := uint64(0)
			par := 0
			for {
				n := int(t.Load(sizes[par]))
				if n == 0 {
					break
				}
				cur, next := bufs[par], bufs[par^1]
				nextSize := sizes[par^1]
				lo, hi := chunk(n, p.Threads, tid)
				for i := lo; i < hi; i++ {
					u := int(t.Load(word(cur, i)))
					lu := t.Load(word(label, u))
					elo, ehi := sg.adjacency(t, u)
					for e := elo; e < ehi; e++ {
						v := sg.edgeAt(t, e)
						t.Compute(25)
						if t.Load(word(label, v)) <= lu {
							continue
						}
						old := t.AMO(memory.AMOUMin, word(label, v), lu) // ldmin
						if old > lu {
							idx := t.AMO(memory.AMOAdd, nextSize, 1)
							t.Store(word(next, int(idx)), uint64(v))
						}
					}
				}
				t.Fence()
				bar.Wait(t, &sense)
				if tid == 0 {
					t.Store(sizes[par], 0)
					t.Fence()
				}
				bar.Wait(t, &sense)
				par ^= 1
			}
			t.Fence()
		})
	}
	ref := graph.Components(g)
	inst.Validate = func(data *memory.Store) error {
		for v := 0; v < g.N; v++ {
			if got := data.Load(word(label, v)); got != uint64(ref[v]) {
				return fmt.Errorf("cc: label[%d] = %d, want %d", v, got, ref[v])
			}
		}
		return nil
	}
	return inst, nil
}

// buildPageRank is the Galois PR analog: push-style fixed-point PageRank
// whose accumulations use CAS-retry loops (Galois uses cas for its
// floating-point accumulates).
func buildPageRank(p Params) (*Instance, error) {
	g := pagerankGraph(p).generate()
	const iters = 2
	const unit = uint64(1 << 20)
	alloc := NewAlloc()
	sg := layoutGraph(alloc, g)
	rank := alloc.NamedWords("rank", g.N)
	next := alloc.NamedWords("next", g.N)
	bar := NewBarrier(alloc, p.Threads)
	inst := &Instance{AMOFootprintBytes: int64(g.N) * 16, Sites: alloc.Sites()}
	inst.Setup = func(data *memory.Store) {
		sg.setup(data)
		for v := 0; v < g.N; v++ {
			data.StoreWord(word(rank, v), unit)
		}
	}
	for i := 0; i < p.Threads; i++ {
		tid := i
		inst.Programs = append(inst.Programs, func(t *cpu.Thread) {
			sense := uint64(0)
			lo, hi := chunk(g.N, p.Threads, tid)
			for it := 0; it < iters; it++ {
				// Reset phase.
				for v := lo; v < hi; v++ {
					t.Store(word(next, v), unit*15/100)
				}
				t.Fence()
				bar.Wait(t, &sense)
				// Scatter phase: CAS-accumulate shares into next[].
				for u := lo; u < hi; u++ {
					elo, ehi := sg.adjacency(t, u)
					d := ehi - elo
					if d == 0 {
						continue
					}
					ru := t.Load(word(rank, u))
					share := ru * 85 / 100 / uint64(d)
					for e := elo; e < ehi; e++ {
						v := sg.edgeAt(t, e)
						t.Compute(130)
						for {
							old := t.Load(word(next, v))
							if t.CAS(word(next, v), old, old+share) == old {
								break
							}
							t.Compute(4)
						}
					}
				}
				t.Fence()
				bar.Wait(t, &sense)
				// Publish phase.
				for v := lo; v < hi; v++ {
					t.Store(word(rank, v), t.Load(word(next, v)))
				}
				t.Fence()
				bar.Wait(t, &sense)
			}
			t.Fence()
		})
	}
	ref := graph.PageRank(g, iters)
	inst.Validate = func(data *memory.Store) error {
		for v := 0; v < g.N; v++ {
			if got := data.Load(word(rank, v)); got != uint64(ref[v]) {
				return fmt.Errorf("pagerank: rank[%d] = %d, want %d", v, got, ref[v])
			}
		}
		return nil
	}
	return inst, nil
}

// buildKCore is the KCORE analog: iterative k-core peeling where dead
// nodes decrement neighbor degrees with ldadd. Degree and liveness share
// cache lines (an interleaved node-state array), so scan reads leave the
// decremented lines in shared state — the pattern where Present Near keeps
// performing but Unique Near falls behind.
func buildKCore(p Params) (*Instance, error) {
	g := kcoreGraph(p).generate()
	const k = 4
	alloc := NewAlloc()
	sg := layoutGraph(alloc, g)
	state := alloc.NamedWords("node-state", 2*g.N) // interleaved: [deg0, alive0, deg1, ...]
	deg := func(v int) memory.Addr { return word(state, 2*v) }
	alive := func(v int) memory.Addr { return word(state, 2*v+1) }
	flag := roundFlag{alloc.NamedLines("round-flag", 1)}
	bar := NewBarrier(alloc, p.Threads)
	inst := &Instance{AMOFootprintBytes: int64(g.N) * 16, Sites: alloc.Sites()}
	inst.Setup = func(data *memory.Store) {
		sg.setup(data)
		for v := 0; v < g.N; v++ {
			data.StoreWord(deg(v), uint64(g.Degree(v)))
			data.StoreWord(alive(v), 1)
		}
	}
	for i := 0; i < p.Threads; i++ {
		tid := i
		inst.Programs = append(inst.Programs, func(t *cpu.Thread) {
			sense := uint64(0)
			lo, hi := chunk(g.N, p.Threads, tid)
			for round := 0; ; round++ {
				for u := lo; u < hi; u++ {
					t.Compute(100)
					if t.Load(alive(u)) != 1 {
						continue
					}
					if t.Load(deg(u)) >= k {
						continue
					}
					if t.CAS(alive(u), 1, 0) != 1 {
						continue
					}
					flag.mark(t, round)
					elo, ehi := sg.adjacency(t, u)
					for e := elo; e < ehi; e++ {
						v := sg.edgeAt(t, e)
						t.AMO(memory.AMOAdd, deg(v), ^uint64(0)) // ldadd -1
					}
				}
				t.Fence()
				bar.Wait(t, &sense)
				done := !flag.marked(t, round)
				bar.Wait(t, &sense)
				if done {
					break
				}
			}
			t.Fence()
		})
	}
	ref := graph.KCore(g, k)
	inst.Validate = func(data *memory.Store) error {
		for v := 0; v < g.N; v++ {
			got := data.Load(alive(v)) == 1
			if got != ref[v] {
				return fmt.Errorf("kcore: alive[%d] = %v, want %v", v, got, ref[v])
			}
		}
		return nil
	}
	return inst, nil
}

// gmetisPhases is how many coarsening phases GMETIS runs, each over its
// own match array.
const gmetisPhases = 2

// buildGMetis is the GMETIS analog: the coarsening phase's randomized
// matching, where threads claim neighbor nodes with CAS on a match array
// they revisit rarely — the migratory, low-reuse pattern where far AMOs
// shine. Work is distributed through a contended fetch-add worklist index
// (the Galois do_all loop counter), with a spinlock protecting the phase
// statistics.
func buildGMetis(p Params) (*Instance, error) {
	g := gmetisGraph(p).generate()
	const chunkSize = 16
	alloc := NewAlloc()
	sg := layoutGraph(alloc, g)
	match := [gmetisPhases]memory.Addr{alloc.NamedLines("match-a", g.N), alloc.NamedLines("match-b", g.N)}
	// Real GMETIS runs over a renumbered multi-megabyte match array where
	// two nodes' match words essentially never share a cache line; one
	// padded slot per node plus a seeded permutation reproduces that
	// collision rate at this scale.
	perm := rand.New(rand.NewSource(p.Seed + 17)).Perm(g.N)
	slot := func(ph int, v int) memory.Addr {
		return match[ph] + memory.Addr(perm[v])*memory.LineSize
	}
	dispenser := alloc.NamedLines("dispenser", 1)
	statsLock := NewNamedSpinLock(alloc, "stats-lock")
	statsCell := alloc.NamedLines("stats-cell", 1)
	bar := NewBarrier(alloc, p.Threads)
	inst := &Instance{AMOFootprintBytes: int64(g.N) * memory.LineSize * gmetisPhases, Sites: alloc.Sites()}
	inst.Setup = func(data *memory.Store) { sg.setup(data) }
	for i := 0; i < p.Threads; i++ {
		tid := i
		inst.Programs = append(inst.Programs, func(t *cpu.Thread) {
			rng := rand.New(rand.NewSource(p.Seed ^ int64(tid+1)*0x4f6cdd1d))
			sense := uint64(0)
			for ph := 0; ph < gmetisPhases; ph++ {
				matched := uint64(0)
				for {
					// Grab a chunk of nodes with a fetch-add on the shared
					// worklist index (the Galois do_all loop counter).
					start := t.AMO(memory.AMOAdd, dispenser, chunkSize)
					if start >= uint64(g.N) {
						break
					}
					end := int(start) + chunkSize
					if end > g.N {
						end = g.N
					}
					for u := int(start); u < end; u++ {
						t.Compute(60)
						// Claim self; skip if someone matched us already.
						if t.CAS(slot(ph, u), 0, uint64(u)+1) != 0 {
							continue
						}
						elo, ehi := sg.adjacency(t, u)
						if ehi == elo {
							continue
						}
						// Randomized probe order over neighbors.
						off := rng.Intn(ehi - elo)
						for j := 0; j < ehi-elo; j++ {
							e := elo + (off+j)%(ehi-elo)
							v := sg.edgeAt(t, e)
							t.Compute(30)
							if v == u {
								continue
							}
							if t.CAS(slot(ph, v), 0, uint64(u)+1) == 0 {
								t.Store(slot(ph, u), uint64(v)+1)
								matched++
								break
							}
						}
					}
				}
				// Fold per-thread match counts into the phase statistics
				// under the coarsening lock.
				statsLock.Lock(t)
				v := t.Load(statsCell)
				t.Store(statsCell, v+matched)
				statsLock.Unlock(t)
				t.Fence()
				bar.Wait(t, &sense)
				if tid == 0 {
					t.Store(dispenser, 0)
					t.Fence()
				}
				bar.Wait(t, &sense)
			}
			t.Fence()
		})
	}
	inst.Validate = func(data *memory.Store) error {
		for ph := 0; ph < gmetisPhases; ph++ {
			pairs := 0
			for u := 0; u < g.N; u++ {
				mu := data.Load(slot(ph, u))
				if mu == 0 || mu == uint64(u)+1 {
					continue // untouched or self-claimed (unmatched)
				}
				v := int(mu) - 1
				mv := data.Load(slot(ph, v))
				if mv != uint64(u)+1 && mv != uint64(v)+1 {
					// u points at v: either v points back (pair) or v kept
					// its self-claim while u was matched *to* v by v.
					return fmt.Errorf("gmetis: phase %d: match[%d]=%d but match[%d]=%d", ph, u, mu, v, mv)
				}
				if mv == uint64(u)+1 {
					pairs++
				}
			}
			if pairs == 0 {
				return fmt.Errorf("gmetis: phase %d produced no matches", ph)
			}
		}
		return nil
	}
	return inst, nil
}

// clusters is Cluster's cluster count; each has a sum and a count line.
const clusters = 256

// buildCluster is the Cluster analog: a streaming pass assigning elements
// to clusters and accumulating per-cluster statistics with stadd.
func buildCluster(p Params) (*Instance, error) {
	n := p.scaled(6000)
	alloc := NewAlloc()
	features := alloc.NamedWords("features", n)
	sums := alloc.NamedLines("cluster-sums", clusters)     // padded: one accumulator line each
	counts := alloc.NamedLines("cluster-counts", clusters) // padded
	inst := &Instance{AMOFootprintBytes: int64(clusters) * 2 * memory.LineSize, Sites: alloc.Sites()}
	rng := rand.New(rand.NewSource(p.Seed + 7))
	feat := make([]uint64, n)
	for i := range feat {
		feat[i] = uint64(rng.Intn(1 << 16))
	}
	inst.Setup = func(data *memory.Store) {
		for i, f := range feat {
			data.StoreWord(word(features, i), f)
		}
	}
	for i := 0; i < p.Threads; i++ {
		tid := i
		inst.Programs = append(inst.Programs, func(t *cpu.Thread) {
			lo, hi := chunk(n, p.Threads, tid)
			for i := lo; i < hi; i++ {
				f := t.Load(word(features, i))
				t.Compute(300)
				c := memory.Addr(f % clusters)
				t.AMOStore(memory.AMOAdd, sums+c*memory.LineSize, f)
				t.AMOStore(memory.AMOAdd, counts+c*memory.LineSize, 1)
			}
			t.Fence()
		})
	}
	var wantSum, wantCount uint64
	for _, f := range feat {
		wantSum += f
		wantCount++
	}
	inst.Validate = func(data *memory.Store) error {
		var sum, count uint64
		for c := 0; c < clusters; c++ {
			sum += data.Load(sums + memory.Addr(c)*memory.LineSize)
			count += data.Load(counts + memory.Addr(c)*memory.LineSize)
		}
		if sum != wantSum || count != wantCount {
			return fmt.Errorf("cluster: sum/count = %d/%d, want %d/%d", sum, count, wantSum, wantCount)
		}
		return nil
	}
	return inst, nil
}

func registerGalois() {
	specs := []struct {
		name, code, sync string
		class            Class
		build            func(Params) (*Instance, error)
		footprint        func(Params) int64
	}{
		{"bfs", "BFS", "Spinlock, ldmin", Medium, buildBFS, perNode(bfsGraph, 8)},
		{"cc", "CC", "Spinlock, ldmin", Medium, buildCC, perNode(ccGraph, 8)},
		{"cluster", "CLU", "Spinlock, stadd", Medium, buildCluster, fixed(clusters * 2 * memory.LineSize)},
		{"gmetis", "GME", "Spinlock, cas", High, buildGMetis, perNode(gmetisGraph, gmetisPhases*memory.LineSize)},
		{"kcore", "KCOR", "Spinlock, ldadd", Medium, buildKCore, perNode(kcoreGraph, 16)},
		{"pagerank", "PR", "Spinlock, cas", Medium, buildPageRank, perNode(pagerankGraph, 16)},
		{"spt", "SPT", "Spinlock, cas", High, buildSPT, perNode(sptGraph, 16)},
		{"sssp", "SSSP", "Spinlock, stmin", High, buildSSSP, perNode(ssspGraph, 16)},
	}
	for _, s := range specs {
		register(&Spec{Name: s.name, Code: s.code, Suite: "Galois", Sync: s.sync, Class: s.class,
			build: s.build, footprint: s.footprint})
	}
}

func init() { registerGalois() }
