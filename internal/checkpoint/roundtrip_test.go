package checkpoint_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"dynamo/internal/check"
	"dynamo/internal/checkpoint"
	"dynamo/internal/machine"
	"dynamo/internal/workload"
)

// smallCfg shrinks the default system so checkpoint tests stay fast.
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

// newMachine builds a small sanitized machine, optionally chaotic, with
// the instance's memory image staged.
func newMachine(t testing.TB, policy string, inst *workload.Instance, chaosSeed int64, level int) *machine.Machine {
	t.Helper()
	cfg := smallCfg(policy)
	cfg.Check = &check.Config{}
	cfg.ChaosSeed, cfg.ChaosLevel = chaosSeed, level
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Setup != nil {
		inst.Setup(m.Sys.Data)
	}
	return m
}

// resultJSON canonically serializes a run result for byte comparison.
func resultJSON(t testing.TB, res *machine.Result) []byte {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// roundTrip asserts the checkpoint property for one workload under one
// policy/chaos configuration: run(0→T) and run(0→k) + checkpoint +
// restore + run(k→T) produce byte-identical Result JSON for three split
// points k, both for an in-process pause/resume and for a full
// serialize/restore cycle through a fresh machine.
func roundTrip(t *testing.T, name, policy string, chaosSeed int64, level int) {
	t.Helper()
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

	inst0 := build()
	m0 := newMachine(t, policy, inst0, chaosSeed, level)
	res0, err := m0.Run(inst0.Programs)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	base := resultJSON(t, res0)
	if res0.SimEvents == 0 {
		t.Fatal("run executed zero events")
	}

	for i := uint64(1); i <= 3; i++ {
		k := res0.SimEvents * i / 4
		if k == 0 {
			continue
		}
		inst1 := build()
		m1 := newMachine(t, policy, inst1, chaosSeed, level)
		res, err := m1.RunTo(inst1.Programs, k)
		if err != nil {
			t.Fatalf("split %d: RunTo: %v", k, err)
		}
		if res != nil {
			// The programs completed before k (the tail of SimEvents is
			// drain work, which cannot be paused in). The completed run
			// must still match the uninterrupted one.
			if !bytes.Equal(resultJSON(t, res), base) {
				t.Errorf("split %d: early-completed run diverged from uninterrupted run", k)
			}
			continue
		}
		if !m1.Paused() {
			t.Fatalf("split %d: RunTo returned no result but the run is not paused", k)
		}
		var buf bytes.Buffer
		if err := m1.Checkpoint(&buf); err != nil {
			t.Fatalf("split %d: checkpoint: %v", k, err)
		}
		res1, err := m1.Resume()
		if err != nil {
			t.Fatalf("split %d: resume: %v", k, err)
		}
		if got := resultJSON(t, res1); !bytes.Equal(got, base) {
			t.Errorf("split %d: paused-and-resumed run diverged from uninterrupted run", k)
		}

		ck, err := machine.Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("split %d: restore: %v", k, err)
		}
		if ck.Event != k {
			t.Errorf("split %d: checkpoint recorded event %d", k, ck.Event)
		}
		inst2 := build()
		m2 := newMachine(t, policy, inst2, chaosSeed, level)
		res2, err := m2.RunFrom(inst2.Programs, ck)
		if err != nil {
			t.Fatalf("split %d: RunFrom: %v", k, err)
		}
		if got := resultJSON(t, res2); !bytes.Equal(got, base) {
			t.Errorf("split %d: restored run diverged from uninterrupted run", k)
		}
		if inst2.Validate != nil {
			if err := inst2.Validate(m2.Sys.Data); err != nil {
				t.Errorf("split %d: restored run functionally invalid: %v", k, err)
			}
		}
	}
}

// TestRoundTripSuite is the acceptance property: every Table III workload
// round-trips through checkpoint/restore at three split points with
// byte-identical results and stats.
func TestRoundTripSuite(t *testing.T) {
	for _, name := range workload.TableIIIOrder() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			roundTrip(t, name, "dynamo-reuse-pn", 0, 0)
		})
	}
}

// TestRoundTripChaos extends the property to chaotic runs: the injector's
// stream positions are part of the checkpointed state, so a restored
// chaotic run must replay the same perturbation schedule bit-exactly.
func TestRoundTripChaos(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  int64
		level int
	}{
		{"histogram", 7, 2},
		{"spmv", 42, 3},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			roundTrip(t, tc.name, "dynamo-reuse-pn", tc.seed, tc.level)
		})
	}
}

// TestRoundTripMetricPolicy covers the metric predictor's AMT tables in
// the policy image (the suite test exercises the reuse predictor).
func TestRoundTripMetricPolicy(t *testing.T) {
	roundTrip(t, "histogram", "dynamo-metric", 0, 0)
}

// TestRunFromWrongIdentity asserts a checkpoint captured under one run
// identity cannot restore a different run.
func TestRunFromWrongIdentity(t *testing.T) {
	spec, err := workload.Get("histogram")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := spec.Build(workload.Params{Threads: 4, Seed: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t, "all-near", inst, 0, 0)
	m.Cfg.CkptIdentity = "run-a"
	res, err := m.RunTo(inst.Programs, 5000)
	if err != nil || res != nil {
		t.Fatalf("RunTo = %v, %v; want a paused run", res, err)
	}
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resume(); err != nil {
		t.Fatal(err)
	}
	ck, err := machine.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	inst2, err := spec.Build(workload.Params{Threads: 4, Seed: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	m2 := newMachine(t, "all-near", inst2, 0, 0)
	m2.Cfg.CkptIdentity = "run-b"
	if _, err := m2.RunFrom(inst2.Programs, ck); !isIncompatible(err) {
		t.Fatalf("RunFrom under a different identity = %v, want ErrIncompatible", err)
	}
}

func isIncompatible(err error) bool {
	return errors.Is(err, checkpoint.ErrIncompatible)
}
