package checkpoint_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"dynamo/internal/checkpoint"
	"dynamo/internal/machine"
	"dynamo/internal/workload"
)

// capture runs histogram to a pause point and returns the serialized
// checkpoint plus a builder for fresh instances of the same workload.
func capture(t testing.TB) ([]byte, func() *workload.Instance) {
	t.Helper()
	spec, err := workload.Get("histogram")
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
	inst := build()
	m := newMachine(t, "all-near", inst, 0, 0)
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
	return buf.Bytes(), build
}

// decode parses a serialized checkpoint's envelope and decodes its state.
func decode(t *testing.T, raw []byte) (*checkpoint.Checkpoint, checkpoint.State) {
	t.Helper()
	var ck checkpoint.Checkpoint
	if err := json.Unmarshal(raw, &ck); err != nil {
		t.Fatal(err)
	}
	var st checkpoint.State
	if err := json.Unmarshal(ck.State, &st); err != nil {
		t.Fatal(err)
	}
	return &ck, st
}

// encode serializes a checkpoint with Write.
func encode(t *testing.T, ck *checkpoint.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := checkpoint.Write(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadValid(t *testing.T) {
	raw, _ := capture(t)
	ck, err := checkpoint.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Schema != checkpoint.SchemaVersion || ck.Event != 5000 || ck.StateDigest == "" {
		t.Errorf("checkpoint = schema %d event %d digest %q", ck.Schema, ck.Event, ck.StateDigest)
	}
}

// TestReadSchemaMismatch asserts schema drift wins over the (now stale)
// digest: the reader must not interpret a future layout's state image.
func TestReadSchemaMismatch(t *testing.T) {
	raw, _ := capture(t)
	ck, st := decode(t, raw)
	ck.Schema = checkpoint.SchemaVersion + 1
	st.Engine.Now++
	var err error
	if ck.State, err = json.Marshal(&st); err != nil {
		t.Fatal(err)
	}
	tampered := encode(t, ck)
	if _, err := checkpoint.Read(bytes.NewReader(tampered)); !errors.Is(err, checkpoint.ErrIncompatible) {
		t.Fatalf("Read = %v, want ErrIncompatible", err)
	}
}

func TestReadTruncated(t *testing.T) {
	raw, _ := capture(t)
	for _, n := range []int{0, 1, len(raw) / 2, len(raw) - 2} {
		if _, err := checkpoint.Read(bytes.NewReader(raw[:n])); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("Read(%d of %d bytes) = %v, want ErrCorrupt", n, len(raw), err)
		}
	}
}

func TestReadGarbage(t *testing.T) {
	if _, err := checkpoint.Read(bytes.NewReader([]byte("not a checkpoint"))); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("Read = %v, want ErrCorrupt", err)
	}
}

// TestReadTamperedState flips state under an unchanged digest: the
// digest verification must reject it as corrupt.
func TestReadTamperedState(t *testing.T) {
	raw, _ := capture(t)
	ck, st := decode(t, raw)
	st.Engine.Now++
	var err error
	if ck.State, err = json.Marshal(&st); err != nil {
		t.Fatal(err)
	}
	tampered := encode(t, ck)
	if _, err := checkpoint.Read(bytes.NewReader(tampered)); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("Read = %v, want ErrCorrupt", err)
	}
}

// TestReadReformattedState: the digest covers the state's bytes as
// written, so a state reformatted to the same value (indented here) no
// longer matches it and reads as corrupt.
func TestReadReformattedState(t *testing.T) {
	raw, _ := capture(t)
	ck, _ := decode(t, raw)
	var indented bytes.Buffer
	if err := json.Indent(&indented, ck.State, "", "  "); err != nil {
		t.Fatal(err)
	}
	ck.State = indented.Bytes()
	if _, err := checkpoint.Read(bytes.NewReader(encode(t, ck))); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("Read = %v, want ErrCorrupt", err)
	}
}

// TestRunFromDiverged re-digests a tampered state so the file reads as
// structurally valid, then asserts the replay cross-validation catches
// that the configuration does not reproduce it.
func TestRunFromDiverged(t *testing.T) {
	raw, build := capture(t)
	ck, st := decode(t, raw)
	st.Engine.Now += 17
	redigested, err := checkpoint.New(ck.Identity, ck.Event, st)
	if err != nil {
		t.Fatal(err)
	}
	tampered := encode(t, redigested)
	parsed, err := checkpoint.Read(bytes.NewReader(tampered))
	if err != nil {
		t.Fatalf("tampered-but-redigested checkpoint failed structural validation: %v", err)
	}
	inst := build()
	m := newMachine(t, "all-near", inst, 0, 0)
	if _, err := m.RunFrom(inst.Programs, parsed); !errors.Is(err, checkpoint.ErrDiverged) {
		t.Fatalf("RunFrom = %v, want ErrDiverged", err)
	}
}

// TestRunFromUndecodableState: Read does not decode the state, so a
// crafted one that matches its digest but is no machine image reads as
// valid; the replay then captures a state with another digest and
// reports divergence.
func TestRunFromUndecodableState(t *testing.T) {
	raw, build := capture(t)
	ck, _ := decode(t, raw)
	ck.State = json.RawMessage(`{"engine":"not a snapshot"}`)
	sum := sha256.Sum256(ck.State)
	ck.StateDigest = hex.EncodeToString(sum[:])
	parsed, err := checkpoint.Read(bytes.NewReader(encode(t, ck)))
	if err != nil {
		t.Fatalf("crafted checkpoint failed structural validation: %v", err)
	}
	inst := build()
	m := newMachine(t, "all-near", inst, 0, 0)
	if _, err := m.RunFrom(inst.Programs, parsed); !errors.Is(err, checkpoint.ErrDiverged) {
		t.Fatalf("RunFrom = %v, want ErrDiverged", err)
	}
}

// The fixture is a checkpoint written by an earlier build's Write, whose
// json.Encoder encoded the decoded State: histogram at two threads, seed
// 1 and scale 0.01 under dynamo-reuse-pn with chaos seed 7 at level 2,
// captured at event 2000 under fixtureIdentity. It carries policy and
// chaos state, so every part of the format is pinned.
const (
	fixturePath     = "testdata/histogram-chaos.ckpt.json"
	fixtureIdentity = "histogram-t2-s0.01"
)

// TestFixture pins the file format: Read accepts the fixture, Write of
// what it read reproduces the file byte for byte, and a run restored
// from it ends identical to an uninterrupted one.
func TestFixture(t *testing.T) {
	raw, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Identity != fixtureIdentity || ck.Event != 2000 {
		t.Errorf("fixture = identity %q event %d", ck.Identity, ck.Event)
	}
	if got := encode(t, ck); !bytes.Equal(got, raw) {
		t.Errorf("Write of the fixture gives %d bytes that differ from its %d", len(got), len(raw))
	}

	spec, err := workload.Get("histogram")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *workload.Instance {
		inst, err := spec.Build(workload.Params{Threads: 2, Seed: 1, Scale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	inst0 := build()
	res0, err := newMachine(t, "dynamo-reuse-pn", inst0, 7, 2).Run(inst0.Programs)
	if err != nil {
		t.Fatal(err)
	}
	inst := build()
	m := newMachine(t, "dynamo-reuse-pn", inst, 7, 2)
	m.Cfg.CkptIdentity = fixtureIdentity
	res, err := m.RunFrom(inst.Programs, ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, res), resultJSON(t, res0)) {
		t.Error("run restored from the fixture diverged from the uninterrupted run")
	}
}

// TestRunFromWrongConfig restores a checkpoint on a machine whose timing
// configuration differs: the deterministic replay lands in a different
// state and must report divergence, not garbage.
func TestRunFromWrongConfig(t *testing.T) {
	raw, build := capture(t)
	ck, err := checkpoint.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	inst := build()
	cfg := smallCfg("all-near")
	cfg.Chi.L1Latency++
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Setup != nil {
		inst.Setup(m.Sys.Data)
	}
	if _, err := m.RunFrom(inst.Programs, ck); !errors.Is(err, checkpoint.ErrDiverged) {
		t.Fatalf("RunFrom under a different configuration = %v, want ErrDiverged", err)
	}
}

// BenchmarkRead reads back a histogram checkpoint of about 92 KB: the
// envelope decode and the digest of the state bytes.
func BenchmarkRead(b *testing.B) {
	raw, _ := capture(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checkpoint.Read(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWrite serializes the same checkpoint into a fresh buffer. The
// state was encoded once, by New at capture, and is not re-encoded here.
func BenchmarkWrite(b *testing.B) {
	raw, _ := capture(b)
	ck, err := checkpoint.Read(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := checkpoint.Write(&buf, ck); err != nil {
			b.Fatal(err)
		}
	}
}
