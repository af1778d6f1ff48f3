package chaos_test

import (
	"errors"
	"sync"
	"testing"

	"dynamo/internal/chaos"
	"dynamo/internal/check"
	"dynamo/internal/machine"
	"dynamo/internal/memory"
	"dynamo/internal/workload"
)

// smallCfg shrinks the default system so chaos tests stay fast.
func smallCfg(policy string) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Policy = policy
	cfg.Chi.Cores = 4
	cfg.Chi.HNSlices = 4
	cfg.Chi.Mesh.Width = 4
	cfg.Chi.Mesh.Height = 4
	cfg.Chi.L1Sets = 16
	cfg.Chi.L2Sets = 64
	cfg.Chi.LLCSets = 256
	return cfg
}

// runInstance executes one workload instance under optional chaos and
// sanitizer, validates its functional result, and returns the result
// digest plus the machine result.
func runInstance(t testing.TB, policy string, inst *workload.Instance, chaosSeed int64, level int, checked bool) (string, *machine.Result) {
	t.Helper()
	cfg := smallCfg(policy)
	if checked {
		cfg.Check = &check.Config{}
	}
	cfg.ChaosSeed, cfg.ChaosLevel = chaosSeed, level
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Run(m, nil)
	if err != nil {
		t.Fatalf("run (chaos seed %d level %d): %v", chaosSeed, level, err)
	}
	return chaos.Digest(m.Sys.Data), res
}

func counterInstance(t testing.TB, ops int) *workload.Instance {
	t.Helper()
	inst, err := workload.Counter(4, ops, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewRejectsBadLevel(t *testing.T) {
	for _, lvl := range []int{-1, chaos.MaxLevel + 1} {
		if _, err := chaos.New(1, lvl); err == nil {
			t.Errorf("level %d accepted", lvl)
		}
	}
	in, err := chaos.New(42, 2)
	if err != nil {
		t.Fatal(err)
	}
	if in.Seed() != 42 || in.Level() != 2 {
		t.Errorf("injector = seed %d level %d, want 42/2", in.Seed(), in.Level())
	}
}

// TestNormalize pins the one defaulting rule every entry point shares.
func TestNormalize(t *testing.T) {
	for _, tc := range []struct {
		seed, wantSeed   int64
		level, wantLevel int
	}{
		{seed: 0, level: 0, wantSeed: 0, wantLevel: 0},
		{seed: 5, level: 0, wantSeed: 5, wantLevel: 1},
		{seed: 0, level: 2, wantSeed: 1, wantLevel: 2},
		{seed: 5, level: 2, wantSeed: 5, wantLevel: 2},
		{seed: -7, level: 0, wantSeed: -7, wantLevel: 1},
	} {
		seed, level := chaos.Normalize(tc.seed, tc.level)
		if seed != tc.wantSeed || level != tc.wantLevel {
			t.Errorf("Normalize(%d, %d) = (%d, %d), want (%d, %d)",
				tc.seed, tc.level, seed, level, tc.wantSeed, tc.wantLevel)
		}
	}
}

// TestChaosDeterminism is the replay property: one (config, workload,
// chaos seed) triple produces byte-identical functional results and
// identical timing/traffic statistics on every run.
func TestChaosDeterminism(t *testing.T) {
	d1, r1 := runInstance(t, "dynamo-reuse-pn", counterInstance(t, 200), 7, 2, true)
	d2, r2 := runInstance(t, "dynamo-reuse-pn", counterInstance(t, 200), 7, 2, true)
	if d1 != d2 {
		t.Errorf("functional digests differ: %s vs %s", d1, d2)
	}
	if r1.Cycles != r2.Cycles || r1.Instructions != r2.Instructions {
		t.Errorf("timing differs: %d/%d cycles, %d/%d instructions",
			r1.Cycles, r2.Cycles, r1.Instructions, r2.Instructions)
	}
	if r1.NoC != r2.NoC {
		t.Errorf("NoC stats differ: %+v vs %+v", r1.NoC, r2.NoC)
	}
	if r1.Mem != r2.Mem {
		t.Errorf("HBM stats differ: %+v vs %+v", r1.Mem, r2.Mem)
	}
}

// TestChaosPerturbsTiming confirms the injector is not inert: a level-3
// perturbation must move the makespan of a contended run (functional
// results stay identical — that is the metamorphic test).
func TestChaosPerturbsTiming(t *testing.T) {
	dBase, rBase := runInstance(t, "all-near", counterInstance(t, 200), 0, 0, true)
	dChaos, rChaos := runInstance(t, "all-near", counterInstance(t, 200), 99, 3, true)
	if dBase != dChaos {
		t.Errorf("functional digests differ under legal perturbation: %s vs %s", dBase, dChaos)
	}
	if rBase.Cycles == rChaos.Cycles {
		t.Errorf("level-3 chaos left the makespan unchanged at %d cycles", rBase.Cycles)
	}
}

// scheduleSensitive marks workloads whose stores legitimately depend on
// thread interleaving: frontier-driven graph algorithms where whichever
// thread wins a race picks the parent/label/queue order. Their Validate
// checks the algorithmic invariant (distances, components), so under
// chaos they must stay valid and replay-deterministic per seed, but need
// not match the unperturbed schedule byte-for-byte. Everything else
// (commutative reductions, disjoint partitions) must digest identically
// under any legal perturbation.
var scheduleSensitive = map[string]bool{
	"bc": true, "bfs": true, "cc": true, "gmetis": true, "spt": true, "sssp": true,
}

// TestCheckedSuiteMetamorphic is the acceptance gate: every Table III
// workload, with the sanitizer enabled, stays functionally correct and
// audit-clean under the unperturbed schedule and under three chaos
// seeds. Schedule-insensitive workloads must additionally produce a
// byte-identical functional image across all four schedules;
// schedule-sensitive ones must replay each perturbed schedule exactly.
func TestCheckedSuiteMetamorphic(t *testing.T) {
	seeds := []int64{11, 22, 33}
	for _, name := range workload.TableIIIOrder() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := workload.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			build := func() *workload.Instance {
				inst, err := spec.Build(workload.Params{Threads: 4, Seed: 1, Scale: 0.1})
				if err != nil {
					t.Fatal(err)
				}
				return inst
			}
			base, res := runInstance(t, "dynamo-reuse-pn", build(), 0, 0, true)
			if res.Check == nil || !res.Check.Clean {
				t.Fatalf("base run not clean: %+v", res.Check)
			}
			for _, seed := range seeds {
				got, res := runInstance(t, "dynamo-reuse-pn", build(), seed, 2, true)
				if res.Check == nil || !res.Check.Clean {
					t.Errorf("seed %d: run not clean: %+v", seed, res.Check)
				}
				if scheduleSensitive[name] {
					if again, _ := runInstance(t, "dynamo-reuse-pn", build(), seed, 2, true); again != got {
						t.Errorf("seed %d: perturbed schedule does not replay", seed)
					}
				} else if got != base {
					t.Errorf("seed %d: functional result diverged", seed)
				}
			}
		})
	}
}

// TestIllegalPerturbationCaught fabricates a perturbation no legal
// injector can produce — a second unique owner materializing out of thin
// air mid-run — and asserts the sanitizer converts it into a structured
// violation instead of silent corruption.
func TestIllegalPerturbationCaught(t *testing.T) {
	cfg := smallCfg("all-near")
	cfg.Check = &check.Config{Interval: 1000}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst := counterInstance(t, 100)
	// The illegal injection: duplicate unique ownership of a line the
	// counter never touches, planted while the run is in flight.
	m.Sys.Engine.Schedule(50, func() {
		m.Sys.RNs[2].ForceStateForTest(memory.LineOf(0xdead00), memory.UniqueDirty)
		m.Sys.RNs[3].ForceStateForTest(memory.LineOf(0xdead00), memory.UniqueDirty)
	})
	_, err = m.Run(inst.Programs)
	if err == nil {
		t.Fatal("illegal perturbation not caught")
	}
	if !errors.Is(err, check.ErrViolation) {
		t.Fatalf("err = %v, want a check violation", err)
	}
	var v *check.Violation
	if !errors.As(err, &v) || v.Kind != check.KindSWMR {
		t.Fatalf("violation = %v, want swmr", err)
	}
}

// fuzzBase caches the unperturbed counter digest shared by fuzz iterations.
var fuzzBase struct {
	once   sync.Once
	digest string
}

// FuzzCounterChaos fuzzes the metamorphic property over perturbation
// seeds: any seed at any level must leave the counter workload's
// functional result identical to the unperturbed run, sanitizer clean.
func FuzzCounterChaos(f *testing.F) {
	f.Add(int64(1), 1)
	f.Add(int64(42), 2)
	f.Add(int64(-7), 3)
	f.Fuzz(func(t *testing.T, seed int64, level int) {
		if level < 1 || level > chaos.MaxLevel {
			l := level % chaos.MaxLevel
			if l < 0 {
				l += chaos.MaxLevel
			}
			level = l + 1
		}
		fuzzBase.once.Do(func() {
			fuzzBase.digest, _ = runInstance(t, "dynamo-reuse-pn", counterInstance(t, 60), 0, 0, true)
		})
		got, res := runInstance(t, "dynamo-reuse-pn", counterInstance(t, 60), seed, level, true)
		if got != fuzzBase.digest {
			t.Errorf("seed %d level %d: functional result diverged", seed, level)
		}
		if res.Check == nil || !res.Check.Clean {
			t.Errorf("seed %d level %d: run not clean", seed, level)
		}
	})
}
