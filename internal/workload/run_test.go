package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"dynamo/internal/checkpoint"
	"dynamo/internal/memory"
)

func counterInstance(t *testing.T) *Instance {
	t.Helper()
	inst, err := Counter(4, 40, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestInstanceRunValidation(t *testing.T) {
	// A counter that starts at 1 ends one above what its validator
	// expects, so only a run that skips validation succeeds.
	skewed := func() *Instance {
		inst := counterInstance(t)
		base := inst.Sites[0].Base
		inst.Setup = func(data *memory.Store) { data.StoreWord(base, 1) }
		return inst
	}
	if _, err := skewed().Run(testMachine(t, "all-near"), nil); err == nil {
		t.Fatal("a skewed counter passed validation")
	}
	inst := skewed()
	inst.Validate = nil
	if _, err := inst.Run(testMachine(t, "all-near"), nil); err != nil {
		t.Fatalf("run without a validator: %v", err)
	}

	errLost := errors.New("lost update")
	inst = counterInstance(t)
	inst.Validate = func(*memory.Store) error { return errLost }
	res, err := inst.Run(testMachine(t, "all-near"), nil)
	if !errors.Is(err, errLost) || res != nil {
		t.Fatalf("failing validator: res %v, err %v; want nil and a wrapped %v", res, err, errLost)
	}
}

// TestInstanceRunResumes checks the checkpoint half of the tail: a run
// resumed from a checkpoint its uninterrupted twin captured mid-run ends
// with a byte-identical result.
func TestInstanceRunResumes(t *testing.T) {
	var cks []*checkpoint.Checkpoint
	m := testMachine(t, "dynamo-reuse-pn")
	m.Cfg.CkptEvery = 500
	m.Cfg.CkptSink = func(ck *checkpoint.Checkpoint) { cks = append(cks, ck) }
	want, err := counterInstance(t).Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatal("the run captured no checkpoint")
	}
	ck := cks[len(cks)/2]
	got, err := counterInstance(t).Run(testMachine(t, "dynamo-reuse-pn"), ck)
	if err != nil {
		t.Fatalf("resume from event %d: %v", ck.Event, err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("resumed from event %d:\n%s\nuninterrupted:\n%s", ck.Event, gotJSON, wantJSON)
	}
}
