package workload

import (
	"fmt"

	"dynamo/internal/cpu"
	"dynamo/internal/graph"
	"dynamo/internal/memory"
)

// bcGraph is BC's input graph.
func bcGraph(p Params) graphInput { return kronecker(10, p.scaled(4), p.Seed+8) }

// buildBC is the GAP betweenness-centrality analog: a forward BFS pass
// followed by a dependency-accumulation pass whose shared updates are
// OpenMP-style atomic adds. AMO density is low — most work is traversal.
func buildBC(p Params) (*Instance, error) {
	g := bcGraph(p).generate()
	alloc := NewAlloc()
	sg := layoutGraph(alloc, g)
	dist := alloc.NamedWords("dist", g.N)
	sigma := alloc.NamedWords("sigma", g.N) // shortest-path counts
	bufs := [2]memory.Addr{alloc.NamedWords("frontier-a", g.N), alloc.NamedWords("frontier-b", g.N)}
	sizes := [2]memory.Addr{alloc.NamedLines("frontier-size-a", 1), alloc.NamedLines("frontier-size-b", 1)}
	centrality := alloc.NamedWords("centrality", g.N)
	bar := NewBarrier(alloc, p.Threads)
	const src = 0
	inst := &Instance{AMOFootprintBytes: int64(g.N) * 16, Sites: alloc.Sites()}
	inst.Setup = func(data *memory.Store) {
		sg.setup(data)
		for v := 0; v < g.N; v++ {
			data.StoreWord(word(dist, v), inf)
		}
		data.StoreWord(word(dist, src), 0)
		data.StoreWord(word(sigma, src), 1)
		data.StoreWord(word(bufs[0], 0), src)
		data.StoreWord(sizes[0], 1)
	}
	for i := 0; i < p.Threads; i++ {
		tid := i
		inst.Programs = append(inst.Programs, func(t *cpu.Thread) {
			sense := uint64(0)
			par := 0
			// Phase 1: BFS with sigma accumulation.
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
					su := t.Load(word(sigma, u))
					elo, ehi := sg.adjacency(t, u)
					for e := elo; e < ehi; e++ {
						v := sg.edgeAt(t, e)
						t.Compute(700)
						old := t.AMO(memory.AMOUMin, word(dist, v), du+1)
						if old == inf {
							idx := t.AMO(memory.AMOAdd, nextSize, 1)
							t.Store(word(next, int(idx)), uint64(v))
						}
						// Count shortest paths through this edge.
						if old == inf || old == du+1 {
							t.AMOStore(memory.AMOAdd, word(sigma, v), su)
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
			// Phase 2: accumulate centrality (atomic adds over all nodes).
			lo, hi := chunk(g.N, p.Threads, tid)
			for v := lo; v < hi; v++ {
				t.Compute(800)
				s := t.Load(word(sigma, v))
				if s != 0 {
					t.AMOStore(memory.AMOAdd, word(centrality, v%64), s)
				}
			}
			t.Fence()
		})
	}
	// Reference: serial BFS-sigma with identical arithmetic.
	refDist := graph.BFS(g, src)
	refSigma := make([]uint64, g.N)
	refSigma[src] = 1
	// Process nodes in BFS level order for deterministic sigma.
	order := make([]int, 0, g.N)
	maxLevel := int32(0)
	for _, d := range refDist {
		if d > maxLevel {
			maxLevel = d
		}
	}
	for l := int32(0); l <= maxLevel; l++ {
		for v := 0; v < g.N; v++ {
			if refDist[v] == l {
				order = append(order, v)
			}
		}
	}
	for _, u := range order {
		es, _ := g.Neighbors(u)
		for _, v := range es {
			if refDist[v] == refDist[u]+1 {
				refSigma[v] += refSigma[u]
			}
		}
	}
	var refCentrality [64]uint64
	for v := 0; v < g.N; v++ {
		refCentrality[v%64] += refSigma[v]
	}
	inst.Validate = func(data *memory.Store) error {
		for v := 0; v < g.N; v++ {
			if got := data.Load(word(sigma, v)); got != refSigma[v] {
				return fmt.Errorf("bc: sigma[%d] = %d, want %d", v, got, refSigma[v])
			}
		}
		for i := 0; i < 64; i++ {
			if got := data.Load(word(centrality, i)); got != refCentrality[i] {
				return fmt.Errorf("bc: centrality[%d] = %d, want %d", i, got, refCentrality[i])
			}
		}
		return nil
	}
	return inst, nil
}

// buildTC is the GAP triangle-counting analog: sorted-adjacency
// intersection with per-thread counters flushed to a global total — the
// OpenMP-reduction pattern with almost no AMOs (Table III: 10 KB).
func buildTC(p Params) (*Instance, error) {
	g := kronecker(8, p.scaled(6), p.Seed+9).generate()
	alloc := NewAlloc()
	sg := layoutGraph(alloc, g)
	total := alloc.NamedLines("total", 1)
	inst := &Instance{AMOFootprintBytes: memory.LineSize, Sites: alloc.Sites()}
	inst.Setup = func(data *memory.Store) { sg.setup(data) }
	for i := 0; i < p.Threads; i++ {
		tid := i
		inst.Programs = append(inst.Programs, func(t *cpu.Thread) {
			lo, hi := chunk(g.N, p.Threads, tid)
			local := uint64(0)
			for u := lo; u < hi; u++ {
				ulo, uhi := sg.adjacency(t, u)
				for e := ulo; e < uhi; e++ {
					v := sg.edgeAt(t, e)
					if v <= u {
						continue
					}
					vlo, vhi := sg.adjacency(t, v)
					// Merge-intersect sorted adjacency lists.
					i, j := ulo, vlo
					for i < uhi && j < vhi {
						a := sg.edgeAt(t, i)
						b := sg.edgeAt(t, j)
						t.Compute(2)
						switch {
						case a == b:
							if a > v {
								local++
							}
							i++
							j++
						case a < b:
							i++
						default:
							j++
						}
					}
				}
			}
			// OpenMP-style reduction: one atomic add per thread.
			t.AMOStore(memory.AMOAdd, total, local)
			t.Fence()
		})
	}
	want := graph.Triangles(g)
	inst.Validate = func(data *memory.Store) error {
		if got := data.Load(total); got != want {
			return fmt.Errorf("tc: %d triangles, want %d", got, want)
		}
		return nil
	}
	return inst, nil
}

func init() {
	register(&Spec{Name: "bc", Code: "BC", Suite: "GAP", Sync: "OpenMP", Class: Low,
		build: buildBC, footprint: perNode(bcGraph, 16)})
	register(&Spec{Name: "tc", Code: "TC", Suite: "GAP", Sync: "OpenMP", Class: Low,
		build: buildTC, footprint: fixed(memory.LineSize)})
}
