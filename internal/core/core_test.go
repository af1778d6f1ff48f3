package core

import (
	"testing"
	"testing/quick"

	"dynamo/internal/chi"
	"dynamo/internal/memory"
)

// TestTableI asserts the five static policies against the published table.
// Columns: UC, UD, SC, SD, I. N=Near, F=Far.
func TestTableI(t *testing.T) {
	n, f := chi.Near, chi.Far
	cases := []struct {
		policy *Static
		want   [5]chi.Placement
	}{
		{AllNear(), [5]chi.Placement{n, n, n, n, n}},
		{UniqueNear(), [5]chi.Placement{n, n, f, f, f}},
		{PresentNear(), [5]chi.Placement{n, n, n, n, f}},
		{DirtyNear(), [5]chi.Placement{n, n, f, n, f}},
		{SharedFar(), [5]chi.Placement{n, n, f, f, n}},
	}
	for _, c := range cases {
		if c.policy.Table() != c.want {
			t.Errorf("%s table = %v, want %v", c.policy.Name(), c.policy.Table(), c.want)
		}
		for i, st := range memory.States {
			if got := c.policy.Decide(0, 0x10, st); got != c.want[i] {
				t.Errorf("%s.Decide(%v) = %v, want %v", c.policy.Name(), st, got, c.want[i])
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	if len(Names()) != 8 {
		t.Fatalf("registry has %d policies, want 8: %v", len(Names()), Names())
	}
	for _, name := range Names() {
		p, err := NewIn(name, 4, DefaultAMTConfig(), nil)
		if err != nil {
			t.Fatalf("NewIn(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := NewIn("bogus", 4, DefaultAMTConfig(), nil); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewIn("all-near", 0, DefaultAMTConfig(), nil); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := NewIn("dynamo-metric", 4, AMTConfig{Entries: 100, Ways: 3, CounterMax: 32}, nil); err == nil {
		t.Error("bad AMT geometry accepted")
	}
	if len(StaticNames())+len(DynamicNames()) != 8 {
		t.Error("name groups incomplete")
	}
}

func TestAMTConfigValidate(t *testing.T) {
	bad := []AMTConfig{
		{Entries: 0, Ways: 4, CounterMax: 32},
		{Entries: 128, Ways: 0, CounterMax: 32},
		{Entries: 127, Ways: 4, CounterMax: 32},
		{Entries: 96, Ways: 4, CounterMax: 32}, // 24 sets: not a power of two
		{Entries: 128, Ways: 4, CounterMax: 0},
		// A cache array's 2-byte set header indexes at most 32768 sets.
		{Entries: 1 << 16 * 4, Ways: 4, CounterMax: 32},
		{Entries: 1 << 16, Ways: 1, CounterMax: 32},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	for _, c := range []AMTConfig{DefaultAMTConfig(), {Entries: 1 << 15 * 4, Ways: 4, CounterMax: 32}} {
		if err := c.Validate(); err != nil {
			t.Fatalf("config %+v rejected: %v", c, err)
		}
	}
}

// TestAMTCost reproduces the Section VI-G estimate: 55 bits per entry,
// padded to 64, so a 128-entry AMT costs 1 KiB per core.
func TestAMTCost(t *testing.T) {
	c := CostOf(DefaultAMTConfig())
	if c.BitsPerEntry != 55 {
		t.Errorf("BitsPerEntry = %d, want 55", c.BitsPerEntry)
	}
	if c.PaddedBitsPerEntry != 64 {
		t.Errorf("PaddedBitsPerEntry = %d, want 64", c.PaddedBitsPerEntry)
	}
	if c.Bytes != 1024 {
		t.Errorf("Bytes = %d, want 1024", c.Bytes)
	}
}

func TestMetricFirstDecisionIsNear(t *testing.T) {
	m := NewMetric(2, DefaultAMTConfig())
	if got := m.Decide(0, 0x42, memory.Invalid); got != chi.Near {
		t.Fatalf("first decision = %v, want near", got)
	}
	near, inv, ok := m.Entry(0, 0x42)
	if !ok || near != 1 || inv != 0 {
		t.Fatalf("new entry = (%d,%d,%v), want (1,0,true)", near, inv, ok)
	}
}

func TestMetricFlipsToFarUnderContention(t *testing.T) {
	m := NewMetric(1, DefaultAMTConfig())
	line := memory.Line(0x99)
	m.Decide(0, line, memory.Invalid) // allocate: near=1, inv=0
	// The directory keeps invalidating the line without near completions.
	for i := 0; i < 5; i++ {
		m.OnInvalidate(0, line)
	}
	if got := m.Decide(0, line, memory.Invalid); got != chi.Far {
		t.Fatalf("contended line predicted %v, want far", got)
	}
	// Near completions flow back: prediction returns to near.
	for i := 0; i < 10; i++ {
		m.OnNearComplete(0, line)
	}
	if got := m.Decide(0, line, memory.SharedClean); got != chi.Near {
		t.Fatalf("reused line predicted %v, want near", got)
	}
}

func TestMetricUniqueAlwaysNear(t *testing.T) {
	m := NewMetric(1, DefaultAMTConfig())
	line := memory.Line(0x7)
	m.Decide(0, line, memory.Invalid)
	for i := 0; i < 8; i++ {
		m.OnInvalidate(0, line)
	}
	if got := m.Decide(0, line, memory.UniqueDirty); got != chi.Near {
		t.Fatalf("unique state predicted %v, want near", got)
	}
}

func TestMetricCounterAging(t *testing.T) {
	cfg := AMTConfig{Entries: 16, Ways: 4, CounterMax: 8}
	m := NewMetric(1, cfg)
	line := memory.Line(0x5)
	m.Decide(0, line, memory.Invalid)
	for i := 0; i < 100; i++ {
		m.OnNearComplete(0, line)
	}
	near, inv, _ := m.Entry(0, line)
	if near >= uint32(cfg.CounterMax) {
		t.Fatalf("counter %d not aged below max %d", near, cfg.CounterMax)
	}
	_ = inv
}

func TestMetricPerCoreIsolation(t *testing.T) {
	m := NewMetric(2, DefaultAMTConfig())
	line := memory.Line(0x123)
	m.Decide(0, line, memory.Invalid)
	for i := 0; i < 5; i++ {
		m.OnInvalidate(0, line)
	}
	// Core 1 has no history; its first decision must be near.
	if got := m.Decide(1, line, memory.Invalid); got != chi.Near {
		t.Fatalf("core 1 predicted %v, want near", got)
	}
	if got := m.Decide(0, line, memory.Invalid); got != chi.Far {
		t.Fatalf("core 0 predicted %v, want far", got)
	}
}

func TestReuseFirstDecisionOptimistic(t *testing.T) {
	r := NewReuse(1, DefaultAMTConfig(), FallbackPresentNear)
	if got := r.Decide(0, 0x1, memory.Invalid); got != chi.Near {
		t.Fatalf("first decision = %v, want near", got)
	}
	conf, ok := r.Confidence(0, 0x1)
	if !ok || conf != 4 {
		t.Fatalf("new entry confidence = (%d,%v), want (4,true)", conf, ok)
	}
}

// drainConfidence simulates repeated no-reuse AMO lifetimes for a line.
func drainConfidence(r *Reuse, line memory.Line, times int) {
	for i := 0; i < times; i++ {
		r.Decide(0, line, memory.Invalid)
		r.OnFill(0, line, true)
		r.OnEvict(0, line) // no intervening hit: reuse bit clear
	}
}

func TestReuseConfidenceDrainsWithoutReuse(t *testing.T) {
	cfg := AMTConfig{Entries: 128, Ways: 4, CounterMax: 4}
	r := NewReuse(1, cfg, FallbackUniqueNear)
	line := memory.Line(0x10)
	drainConfidence(r, line, 4)
	conf, ok := r.Confidence(0, line)
	if !ok || conf != 0 {
		t.Fatalf("confidence = (%d,%v), want (0,true)", conf, ok)
	}
	// Zero confidence: UN fallback sends SC/SD/I far.
	for _, st := range []memory.State{memory.Invalid, memory.SharedClean, memory.SharedDirty} {
		if got := r.Decide(0, line, st); got != chi.Far {
			t.Errorf("UN fallback for %v = %v, want far", st, got)
		}
	}
	if got := r.Decide(0, line, memory.UniqueDirty); got != chi.Near {
		t.Error("unique state not forced near")
	}
}

func TestReusePNFallbackIsConservative(t *testing.T) {
	cfg := AMTConfig{Entries: 128, Ways: 4, CounterMax: 4}
	r := NewReuse(1, cfg, FallbackPresentNear)
	line := memory.Line(0x20)
	drainConfidence(r, line, 4)
	if got := r.Decide(0, line, memory.Invalid); got != chi.Far {
		t.Errorf("PN fallback for I = %v, want far", got)
	}
	// Present Near keeps shared states near even at zero confidence.
	for _, st := range []memory.State{memory.SharedClean, memory.SharedDirty} {
		if got := r.Decide(0, line, st); got != chi.Near {
			t.Errorf("PN fallback for %v = %v, want near", st, got)
		}
	}
}

func TestReuseHitRestoresConfidence(t *testing.T) {
	cfg := AMTConfig{Entries: 128, Ways: 4, CounterMax: 4}
	r := NewReuse(1, cfg, FallbackUniqueNear)
	line := memory.Line(0x30)
	drainConfidence(r, line, 4)
	// Reused lifetimes rebuild confidence.
	for i := 0; i < 3; i++ {
		r.Decide(0, line, memory.Invalid)
		r.OnFill(0, line, true)
		r.OnHit(0, line)
		r.OnInvalidate(0, line)
	}
	conf, _ := r.Confidence(0, line)
	if conf != 3 {
		t.Fatalf("confidence = %d, want 3", conf)
	}
	if got := r.Decide(0, line, memory.SharedClean); got != chi.Near {
		t.Fatalf("restored line predicted %v, want near", got)
	}
}

func TestReuseGlobalRatioSteersNewEntries(t *testing.T) {
	r := NewReuse(1, DefaultAMTConfig(), FallbackPresentNear)
	// Create a long streaming history: many AMO fills, none reused. Use
	// distinct lines so each is a fresh AMT entry.
	for i := 0; i < 64; i++ {
		line := memory.Line(0x1000 + i)
		r.Decide(0, line, memory.Invalid)
		r.OnFill(0, line, true)
		r.OnEvict(0, line)
	}
	fills, reused := r.GlobalReuse(0)
	if fills != 64 || reused != 0 {
		t.Fatalf("global reuse = (%d,%d)", fills, reused)
	}
	// A brand-new line is now predicted far on first touch.
	if got := r.Decide(0, memory.Line(0x9999), memory.Invalid); got != chi.Far {
		t.Fatalf("streaming-phase first decision = %v, want far", got)
	}
}

func TestReuseGlobalRatioWarmupIsNear(t *testing.T) {
	r := NewReuse(1, DefaultAMTConfig(), FallbackPresentNear)
	// With fewer than 16 observed fills the first decision stays near.
	for i := 0; i < 10; i++ {
		line := memory.Line(0x2000 + i)
		r.Decide(0, line, memory.Invalid)
		r.OnFill(0, line, true)
		r.OnEvict(0, line)
	}
	if got := r.Decide(0, memory.Line(0x8888), memory.Invalid); got != chi.Near {
		t.Fatalf("warmup first decision = %v, want near", got)
	}
}

func TestReuseNonAMOFillsIgnored(t *testing.T) {
	r := NewReuse(1, DefaultAMTConfig(), FallbackPresentNear)
	r.OnFill(0, 0x1, false)
	fills, _ := r.GlobalReuse(0)
	if fills != 0 {
		t.Fatalf("non-AMO fill counted: %d", fills)
	}
}

// Property: confidence always stays within [0, CounterMax] under arbitrary
// event sequences, and unique states always decide near.
func TestReuseBoundsProperty(t *testing.T) {
	f := func(events []uint8) bool {
		cfg := AMTConfig{Entries: 32, Ways: 4, CounterMax: 8}
		r := NewReuse(2, cfg, FallbackUniqueNear)
		for _, ev := range events {
			core := int(ev) & 1
			line := memory.Line((ev >> 1) & 7)
			switch (ev >> 4) % 6 {
			case 0:
				st := memory.States[int(ev>>5)%len(memory.States)]
				got := r.Decide(core, line, st)
				if st.Unique() && got != chi.Near {
					return false
				}
			case 1:
				r.OnFill(core, line, true)
			case 2:
				r.OnHit(core, line)
			case 3:
				r.OnEvict(core, line)
			case 4:
				r.OnInvalidate(core, line)
			case 5:
				r.OnNearComplete(core, line)
			}
			if c, ok := r.Confidence(core, line); ok && (c < 0 || c > cfg.CounterMax) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Metric counters never exceed CounterMax after any event stream.
func TestMetricBoundsProperty(t *testing.T) {
	f := func(events []uint8) bool {
		cfg := AMTConfig{Entries: 32, Ways: 4, CounterMax: 8}
		m := NewMetric(2, cfg)
		for _, ev := range events {
			core := int(ev) & 1
			line := memory.Line((ev >> 1) & 7)
			switch (ev >> 4) % 3 {
			case 0:
				m.Decide(core, line, memory.Invalid)
			case 1:
				m.OnNearComplete(core, line)
			case 2:
				m.OnInvalidate(core, line)
			}
			if n, i, ok := m.Entry(core, line); ok &&
				(n > uint32(cfg.CounterMax) || i > uint32(cfg.CounterMax)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReuseDecide(b *testing.B) {
	r := NewReuse(1, DefaultAMTConfig(), FallbackPresentNear)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Decide(0, memory.Line(i%256), memory.SharedClean)
	}
}
