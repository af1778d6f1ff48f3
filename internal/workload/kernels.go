package workload

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"dynamo/internal/cpu"
	"dynamo/internal/memory"
)

// fluidCells is Fluidanimate's grid cell count at scale 1; each cell has
// a mutex line and an accumulator line.
const fluidCells = 192

// buildFluidanimate is the PARSEC Fluidanimate analog: particles update
// their grid cell's accumulators under fine-grained per-cell mutexes, with
// occasional two-cell interactions taken in lock order. Cell locks are
// revisited by the same thread — the reuse pattern of Fig. 3(b).
func buildFluidanimate(p Params) (*Instance, error) {
	cells := p.scaled(fluidCells)
	particles := p.scaled(2600)
	const iters = 2
	alloc := NewAlloc()
	locks := NewNamedMutexes(alloc, "cell-locks", cells)
	cellMass := alloc.NamedLines("cell-mass", cells) // one accumulator line per cell
	bar := NewBarrier(alloc, p.Threads)
	inst := &Instance{AMOFootprintBytes: int64(cells) * 2 * memory.LineSize, Sites: alloc.Sites()}
	rng := rand.New(rand.NewSource(p.Seed + 10))
	// Particles are spatially sorted, so consecutive particles share cells.
	cellOf := make([]int, particles)
	for i := range cellOf {
		cellOf[i] = (i*cells/particles + rng.Intn(2)) % cells
	}
	mass := func(i int) uint64 { return uint64(i%7 + 1) }
	for i := 0; i < p.Threads; i++ {
		tid := i
		inst.Programs = append(inst.Programs, func(t *cpu.Thread) {
			sense := uint64(0)
			lo, hi := chunk(particles, p.Threads, tid)
			for it := 0; it < iters; it++ {
				for i := lo; i < hi; i++ {
					t.Compute(450)
					c := cellOf[i]
					locks[c].Lock(t)
					addr := cellMass + memory.Addr(c)*memory.LineSize
					v := t.Load(addr)
					t.Store(addr, v+mass(i))
					locks[c].Unlock(t)
					// Every 4th particle interacts with the next cell,
					// taking both locks in index order to avoid deadlock.
					if i%4 == 0 {
						n := (c + 1) % cells
						a, b := c, n
						if b < a {
							a, b = b, a
						}
						locks[a].Lock(t)
						locks[b].Lock(t)
						addrN := cellMass + memory.Addr(n)*memory.LineSize
						vn := t.Load(addrN)
						t.Store(addrN, vn+1)
						locks[b].Unlock(t)
						locks[a].Unlock(t)
					}
				}
				bar.Wait(t, &sense)
			}
			t.Fence()
		})
	}
	var want uint64
	for i := 0; i < particles; i++ {
		want += mass(i) * iters
		if i%4 == 0 {
			want += iters
		}
	}
	inst.Validate = func(data *memory.Store) error {
		var got uint64
		for c := 0; c < cells; c++ {
			got += data.Load(cellMass + memory.Addr(c)*memory.LineSize)
		}
		if got != want {
			return fmt.Errorf("fluidanimate: total mass %d, want %d", got, want)
		}
		return nil
	}
	return inst, nil
}

// histInputs mirrors Fig. 9's image sensitivity through the pixel-value
// distribution. IMG and NASA produce the paper's mixed pattern: a hot set
// of buckets reused constantly plus a long cold tail whose near-AMO fills
// thrash the L1 (far-friendly). BMP24 concentrates on few buckets that fit
// the L1 (near-friendly).
var histInputs = map[string]struct {
	buckets    int
	hotBuckets int
	hotPermil  int // fraction of pixels hitting the hot set, in 1/1000
	pixels     int
	// compute is the per-pixel local work: wide histograms pay an index
	// hash on top of the bucket update; the 256-bin path is a direct
	// index.
	compute int
}{
	"IMG":   {buckets: 1 << 18, hotBuckets: 64, hotPermil: 700, pixels: 64_000, compute: 35},
	"NASA":  {buckets: 1 << 18, hotBuckets: 64, hotPermil: 700, pixels: 64_000, compute: 35},
	"BMP24": {buckets: 256, hotBuckets: 256, hotPermil: 1000, pixels: 64_000, compute: 6},
}

// buildHistogram is the OpenCV color-histogram analog: threads stream
// pixel words and scatter stadd increments into the bucket array.
func buildHistogram(p Params) (*Instance, error) {
	input := p.Input
	shape := histInputs[input]
	pixels := p.scaled(shape.pixels)
	const pxPerWord = 4
	words := (pixels + pxPerWord - 1) / pxPerWord
	alloc := NewAlloc()
	image := alloc.NamedWords("image", words)
	buckets := alloc.NamedWords("buckets", shape.buckets)
	inst := &Instance{AMOFootprintBytes: int64(shape.buckets) * 8, Sites: alloc.Sites()}
	rng := rand.New(rand.NewSource(p.Seed + 11))
	// Pixel values. Wide-histogram inputs (IMG/NASA) mix a hot color set
	// with a uniform cold tail. BMP24 models scanline color runs: nearby
	// pixels — which land on the same thread — share a drifting palette
	// window, so each thread's buckets are mostly private (near-friendly).
	bucketOf := func(i int) int {
		if shape.buckets == 256 {
			// One aligned palette octet (one cache line) per image region,
			// so each thread's buckets stay private.
			region := i * 32 / words
			return (region*8 + rng.Intn(8)) % 256
		}
		if rng.Intn(1000) < shape.hotPermil {
			return rng.Intn(shape.hotBuckets)
		}
		return rng.Intn(shape.buckets)
	}
	px := make([]uint64, words)
	for i := range px {
		var w uint64
		for j := 0; j < pxPerWord; j++ {
			w = w<<16 | uint64(bucketOf(i)&0xffff)
		}
		px[i] = w
	}
	inst.Setup = func(data *memory.Store) {
		for i, w := range px {
			data.StoreWord(word(image, i), w)
		}
	}
	// The 16-bit pixel encodes the bucket directly for BMP24-sized
	// histograms; wide histograms spread pixels with a fixed hash so hot
	// pixels still map to the hot-bucket range.
	bucketIdx := func(v int) int {
		if shape.buckets <= 1<<16 {
			return v % shape.buckets
		}
		return (v * (shape.buckets >> 16)) % shape.buckets
	}
	for i := 0; i < p.Threads; i++ {
		tid := i
		inst.Programs = append(inst.Programs, func(t *cpu.Thread) {
			lo, hi := chunk(words, p.Threads, tid)
			for i := lo; i < hi; i++ {
				w := t.Load(word(image, i))
				for j := 0; j < pxPerWord; j++ {
					t.Compute(shape.compute)
					b := bucketIdx(int(w>>(16*j)) & 0xffff)
					t.AMOStore(memory.AMOAdd, word(buckets, b), 1)
				}
			}
			t.Fence()
		})
	}
	want := uint64(words * pxPerWord)
	inst.Validate = func(data *memory.Store) error {
		var got uint64
		for b := 0; b < shape.buckets; b++ {
			got += data.Load(word(buckets, b))
		}
		if got != want {
			return fmt.Errorf("histogram(%s): %d counts, want %d", input, got, want)
		}
		return nil
	}
	return inst, nil
}

// Radix Sort sorts radixKeys keys at scale 1, each one of radix digit
// values.
const (
	radixKeys = 12_000
	radix     = 256
)

// buildRadixSort is the parallel radix sort analog: a count phase of stadd
// scatters into a packed shared count array, a prefix-sum phase, and a
// scatter phase that claims output slots with ldadd — separated by POSIX
// barriers (Table III: "POSIX barrier, stadd").
func buildRadixSort(p Params) (*Instance, error) {
	n := p.scaled(radixKeys)
	alloc := NewAlloc()
	src := alloc.NamedWords("src", n)
	dst := alloc.NamedWords("dst", n)
	counts := alloc.NamedWords("counts", radix)
	ptrs := alloc.NamedWords("ptrs", radix)
	bar := NewBarrier(alloc, p.Threads)
	inst := &Instance{AMOFootprintBytes: int64(radix)*16 + int64(n)*8, Sites: alloc.Sites()}
	rng := rand.New(rand.NewSource(p.Seed + 12))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(radix))
	}
	inst.Setup = func(data *memory.Store) {
		for i, k := range keys {
			data.StoreWord(word(src, i), k+1) // +1 so zero keys are visible
		}
	}
	for i := 0; i < p.Threads; i++ {
		tid := i
		inst.Programs = append(inst.Programs, func(t *cpu.Thread) {
			sense := uint64(0)
			lo, hi := chunk(n, p.Threads, tid)
			// Count phase.
			for i := lo; i < hi; i++ {
				k := t.Load(word(src, i)) - 1
				t.Compute(35)
				t.AMOStore(memory.AMOAdd, word(counts, int(k)), 1)
			}
			t.Fence()
			bar.Wait(t, &sense)
			// Prefix-sum phase (thread 0).
			if tid == 0 {
				acc := uint64(0)
				for d := 0; d < radix; d++ {
					c := t.Load(word(counts, d))
					t.Store(word(ptrs, d), acc)
					acc += c
				}
				t.Fence()
			}
			bar.Wait(t, &sense)
			// Scatter phase: claim output slots with ldadd.
			for i := lo; i < hi; i++ {
				k := t.Load(word(src, i)) - 1
				t.Compute(35)
				idx := t.AMO(memory.AMOAdd, word(ptrs, int(k)), 1) // ldadd
				t.Store(word(dst, int(idx)), k+1)
			}
			t.Fence()
			bar.Wait(t, &sense)
		})
	}
	inst.Validate = func(data *memory.Store) error {
		var histo [radix]int
		for _, k := range keys {
			histo[k]++
		}
		pos := 0
		for d := 0; d < radix; d++ {
			for c := 0; c < histo[d]; c++ {
				if got := data.Load(word(dst, pos)); got != uint64(d)+1 {
					return fmt.Errorf("radixsort: dst[%d] = %d, want %d", pos, got, d+1)
				}
				pos++
			}
		}
		if pos != n {
			return fmt.Errorf("radixsort: %d elements placed, want %d", pos, n)
		}
		return nil
	}
	return inst, nil
}

// spmvInputs mirrors Fig. 9's two matrices. JP scatters into a result
// vector far larger than the L1 with a mixed row distribution (a reused
// hot band plus a cold uniform tail — far-friendly); rma10 is banded with
// a small result vector that fits the L1 (near-friendly).
var spmvInputs = map[string]struct {
	rows, cols, nnzPerCol int
	hotRows               int
	hotPermil             int
	banded                bool
}{
	"JP":    {rows: 1 << 19, cols: 3600, nnzPerCol: 11, hotRows: 96, hotPermil: 600},
	"rma10": {rows: 1 << 10, cols: 3600, nnzPerCol: 11, banded: true},
}

// buildSPMV is the sparse matrix-vector kernel in compressed sparse column
// format: y[row] += val * x[col] via stadd scatters.
func buildSPMV(p Params) (*Instance, error) {
	input := p.Input
	shape := spmvInputs[input]
	cols := p.scaled(shape.cols)
	nnz := cols * shape.nnzPerCol
	alloc := NewAlloc()
	x := alloc.NamedWords("x", cols)
	// Each matrix entry packs (row << 8 | value) into one word.
	entries := alloc.NamedWords("entries", nnz)
	y := alloc.NamedWords("y", shape.rows)
	inst := &Instance{AMOFootprintBytes: int64(shape.rows) * 8, Sites: alloc.Sites()}
	rng := rand.New(rand.NewSource(p.Seed + 13))
	rowOf := make([]int, nnz)
	valOf := make([]uint64, nnz)
	xv := make([]uint64, cols)
	for j := range xv {
		xv[j] = uint64(rng.Intn(15) + 1)
	}
	for i := 0; i < nnz; i++ {
		switch {
		case shape.banded:
			col := i / shape.nnzPerCol
			band := shape.rows / 8
			base := col * shape.rows / cols
			rowOf[i] = (base + rng.Intn(band)) % shape.rows
		case rng.Intn(1000) < shape.hotPermil:
			rowOf[i] = rng.Intn(shape.hotRows)
		default:
			rowOf[i] = rng.Intn(shape.rows)
		}
		valOf[i] = uint64(rng.Intn(9) + 1)
	}
	inst.Setup = func(data *memory.Store) {
		for j, v := range xv {
			data.StoreWord(word(x, j), v)
		}
		for i := 0; i < nnz; i++ {
			data.StoreWord(word(entries, i), uint64(rowOf[i])<<8|valOf[i])
		}
	}
	for i := 0; i < p.Threads; i++ {
		tid := i
		inst.Programs = append(inst.Programs, func(t *cpu.Thread) {
			loCol, hiCol := chunk(cols, p.Threads, tid)
			for j := loCol; j < hiCol; j++ {
				xj := t.Load(word(x, j))
				for i := j * shape.nnzPerCol; i < (j+1)*shape.nnzPerCol; i++ {
					e := t.Load(word(entries, i))
					row := int(e >> 8)
					val := e & 0xff
					t.Compute(30)
					t.AMOStore(memory.AMOAdd, word(y, row), val*xj)
				}
			}
			t.Fence()
		})
	}
	// The reference result is sparse: (row, sum) for each row the matrix
	// touches, in row order. JP's y has 2^19 rows at every scale, and a
	// dense copy would cost 4 MiB per build.
	type rowSum struct {
		row int
		sum uint64
	}
	ref := make([]rowSum, nnz)
	for i := range ref {
		ref[i] = rowSum{rowOf[i], valOf[i] * xv[i/shape.nnzPerCol]}
	}
	slices.SortFunc(ref, func(a, b rowSum) int { return cmp.Compare(a.row, b.row) })
	sums := ref[:0]
	for _, r := range ref {
		if n := len(sums); n > 0 && sums[n-1].row == r.row {
			sums[n-1].sum += r.sum
		} else {
			sums = append(sums, r)
		}
	}
	inst.Validate = func(data *memory.Store) error {
		next := sums
		for r := 0; r < shape.rows; r++ {
			var want uint64
			if len(next) > 0 && next[0].row == r {
				want = next[0].sum
				next = next[1:]
			}
			if got := data.Load(word(y, r)); got != want {
				return fmt.Errorf("spmv(%s): y[%d] = %d, want %d", input, r, got, want)
			}
		}
		return nil
	}
	return inst, nil
}

func init() {
	register(&Spec{Name: "fluidanimate", Code: "FLU", Suite: "PARSEC", Sync: "POSIX mutex, cas", Class: Medium,
		build:     buildFluidanimate,
		footprint: func(p Params) int64 { return int64(p.scaled(fluidCells)) * 2 * memory.LineSize }})
	register(&Spec{Name: "histogram", Code: "HIST", Suite: "Kernel", Sync: "stadd", Class: High,
		Inputs:    []string{"IMG", "NASA", "BMP24"},
		build:     buildHistogram,
		footprint: func(p Params) int64 { return int64(histInputs[p.Input].buckets) * 8 }})
	register(&Spec{Name: "radixsort", Code: "RSOR", Suite: "Kernel", Sync: "POSIX barrier, stadd", Class: High,
		build:     buildRadixSort,
		footprint: func(p Params) int64 { return radix*16 + int64(p.scaled(radixKeys))*8 }})
	register(&Spec{Name: "spmv", Code: "SPMV", Suite: "Kernel", Sync: "stadd", Class: High,
		Inputs:    []string{"JP", "rma10"},
		build:     buildSPMV,
		footprint: func(p Params) int64 { return int64(spmvInputs[p.Input].rows) * 8 }})
}
