package workload

import (
	"testing"

	"dynamo/internal/machine"
	"dynamo/internal/memory"
)

// testMachine builds a small 4-core system for workload tests.
func testMachine(t *testing.T, policy string) *machine.Machine {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Policy = policy
	cfg.Chi.Cores = 4
	cfg.Chi.HNSlices = 4
	cfg.Chi.Mesh.Width = 4
	cfg.Chi.Mesh.Height = 4
	cfg.Chi.L1Sets = 32
	cfg.Chi.L2Sets = 128
	cfg.Chi.LLCSets = 512
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runInstance executes an instance and validates its functional result.
func runInstance(t *testing.T, m *machine.Machine, inst *Instance) *machine.Result {
	t.Helper()
	res, err := inst.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	if got := len(Names()); got != 21 {
		t.Fatalf("registry has %d workloads, want 21: %v", got, Names())
	}
	order := TableIIIOrder()
	if len(order) != 21 {
		t.Fatalf("TableIIIOrder has %d entries", len(order))
	}
	wantCodes := map[string]string{
		"barnes": "BAR", "fmm": "FMM", "ocean": "OCE", "radiosity": "RAD",
		"raytrace": "RAY", "volrend": "VOL", "water": "WAT",
		"bfs": "BFS", "cc": "CC", "cluster": "CLU", "gmetis": "GME",
		"kcore": "KCOR", "pagerank": "PR", "spt": "SPT", "sssp": "SSSP",
		"bc": "BC", "tc": "TC",
		"fluidanimate": "FLU", "histogram": "HIST", "radixsort": "RSOR", "spmv": "SPMV",
	}
	for name, code := range wantCodes {
		s, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if s.Code != code {
			t.Errorf("%s code = %q, want %q", name, s.Code, code)
		}
		if s.Build == nil {
			t.Errorf("%s has no builder", name)
		}
	}
	if _, err := Get("bogus"); err == nil {
		t.Error("unknown workload accepted")
	}
	if len(All()) != 21 {
		t.Error("All() incomplete")
	}
}

func TestParamsValidation(t *testing.T) {
	if err := (Params{Threads: 0}).Validate(); err == nil {
		t.Error("zero threads accepted")
	}
	if err := (Params{Threads: 65}).Validate(); err == nil {
		t.Error("65 threads accepted")
	}
	s, _ := Get("histogram")
	if _, err := s.Build(Params{Threads: 2, Input: "missing"}); err == nil {
		t.Error("unknown input accepted")
	}
}

func TestScaledParams(t *testing.T) {
	p := Params{Threads: 1}
	if p.scaled(100) != 100 {
		t.Error("default scale not 1.0")
	}
	p.Scale = 0.25
	if p.scaled(100) != 25 {
		t.Error("scale 0.25 wrong")
	}
	p.Scale = 0.001
	if p.scaled(100) != 1 {
		t.Error("scaled below 1")
	}
}

func TestAlloc(t *testing.T) {
	a := NewAlloc()
	w := a.Words(10)
	if w%8 != 0 {
		t.Error("words not 8-aligned")
	}
	l := a.Lines(2)
	if l%memory.LineSize != 0 {
		t.Error("lines not line-aligned")
	}
	l2 := a.Lines(1)
	if l2 != l+2*memory.LineSize {
		t.Errorf("lines not consecutive: %#x then %#x", l, l2)
	}
	if a.Used() <= 0 {
		t.Error("Used not tracked")
	}
}

func TestChunk(t *testing.T) {
	covered := 0
	for tid := 0; tid < 4; tid++ {
		lo, hi := chunk(10, 4, tid)
		covered += hi - lo
		if lo > hi || hi > 10 {
			t.Fatalf("chunk(10,4,%d) = [%d,%d)", tid, lo, hi)
		}
	}
	if covered != 10 {
		t.Fatalf("chunks cover %d of 10", covered)
	}
	// n < threads: some chunks empty.
	lo, hi := chunk(2, 4, 3)
	if lo != hi {
		t.Fatalf("chunk(2,4,3) = [%d,%d), want empty", lo, hi)
	}
}

func TestCounterMicrobench(t *testing.T) {
	for _, noReturn := range []bool{false, true} {
		inst, err := Counter(4, 25, noReturn, 5)
		if err != nil {
			t.Fatal(err)
		}
		m := testMachine(t, "all-near")
		runInstance(t, m, inst)
	}
	if _, err := Counter(0, 5, false, 0); err == nil {
		t.Error("zero threads accepted")
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	// The splash builder's validation is exactly a mutual-exclusion check:
	// critical sections perform non-atomic read-modify-writes.
	inst, err := buildSplash(splashShape{
		locks: 2, iters: 40, compute: 5, privateWords: 8,
		privateTouches: 1, critWords: 2, hotFrac: 0.8,
	}, Params{Threads: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, "all-near")
	runInstance(t, m, inst)
}

func TestMutexUnderFarPolicy(t *testing.T) {
	inst, err := buildSplash(splashShape{
		locks: 2, iters: 30, compute: 5, privateWords: 8,
		privateTouches: 1, critWords: 2, hotFrac: 0.9,
	}, Params{Threads: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, "unique-near")
	runInstance(t, m, inst)
}

// TestAllWorkloadsRunAndValidate is the central integration test: every
// Table III analog computes a correct result on the simulated machine.
func TestAllWorkloadsRunAndValidate(t *testing.T) {
	for _, name := range TableIIIOrder() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := s.Build(Params{Threads: 4, Seed: 1, Scale: 0.15})
			if err != nil {
				t.Fatal(err)
			}
			if len(inst.Programs) != 4 {
				t.Fatalf("%d programs, want 4", len(inst.Programs))
			}
			if inst.AMOFootprintBytes <= 0 {
				t.Error("no AMO footprint reported")
			}
			m := testMachine(t, "all-near")
			res := runInstance(t, m, inst)
			if res.AMOs == 0 {
				t.Error("workload issued no AMOs")
			}
		})
	}
}

// TestWorkloadsUnderDynamo runs a representative subset under the DynAMO
// predictor to confirm correctness is placement-independent.
func TestWorkloadsUnderDynamo(t *testing.T) {
	for _, name := range []string{"radiosity", "bfs", "histogram", "radixsort", "gmetis", "water"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := s.Build(Params{Threads: 4, Seed: 3, Scale: 0.12})
			if err != nil {
				t.Fatal(err)
			}
			m := testMachine(t, "dynamo-reuse-pn")
			runInstance(t, m, inst)
		})
	}
}

// TestWorkloadDeterminism: same seed, same cycle count.
func TestWorkloadDeterminism(t *testing.T) {
	runOnce := func() uint64 {
		s, _ := Get("radixsort")
		inst, err := s.Build(Params{Threads: 4, Seed: 9, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		m := testMachine(t, "present-near")
		res := runInstance(t, m, inst)
		return uint64(res.Cycles)
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

// TestInputVariantsDiffer: the Fig. 9 inputs must change behaviour.
func TestInputVariantsDiffer(t *testing.T) {
	for _, wl := range []string{"histogram", "spmv"} {
		s, _ := Get(wl)
		if len(s.Inputs) < 2 {
			t.Fatalf("%s has no input variants", wl)
		}
		footprints := map[int64]bool{}
		for _, in := range s.Inputs {
			inst, err := s.Build(Params{Threads: 2, Seed: 1, Scale: 0.1, Input: in})
			if err != nil {
				t.Fatal(err)
			}
			footprints[inst.AMOFootprintBytes] = true
		}
		if len(footprints) < 2 {
			t.Errorf("%s input variants share one footprint", wl)
		}
	}
}
