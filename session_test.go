package dynamo

import (
	"errors"
	"testing"

	"dynamo/internal/memory"
)

func TestSessionRun(t *testing.T) {
	s, err := New(smallConfig(),
		WithPolicy("dynamo-reuse-pn"),
		WithThreads(4),
		WithScale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run("histogram")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.AMOs == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Policy != "dynamo-reuse-pn" {
		t.Fatalf("policy = %q", res.Policy)
	}
}

func TestSessionValidatesEagerly(t *testing.T) {
	if _, err := New(smallConfig(), WithPolicy("nope")); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("New with bad policy: %v", err)
	}
	if _, err := New(smallConfig(), WithThreads(99)); err == nil {
		t.Fatal("New accepted more threads than cores")
	}
}

func TestSentinelErrors(t *testing.T) {
	s, err := New(smallConfig(), WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("nope"); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("Run unknown workload: %v", err)
	}
	if _, err := New(smallConfig(), WithPolicy("nope")); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("New unknown policy: %v", err)
	}
}

func TestSessionRunCounter(t *testing.T) {
	s, err := New(smallConfig(), WithPolicy("unique-near"), WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunCounter(30, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.AMOs < 4*30 {
		t.Fatalf("counter run performed %d AMOs", res.AMOs)
	}
}

func TestSessionRunPrograms(t *testing.T) {
	s, err := New(smallConfig(), WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	const addr = 0x1000
	prog := func(th *Thread) {
		for i := 0; i < 8; i++ {
			th.AMOStore(memory.AMOAdd, addr, 1)
		}
		th.Fence()
	}
	res, read, err := s.RunPrograms([]Program{prog, prog})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("empty result")
	}
	if got := read(addr); got != 16 {
		t.Fatalf("counter = %d, want 16", got)
	}
}

// RunPrograms runs under every Session option: a closed interrupt stops
// it with ErrInterrupted after its final checkpoint reaches the sink.
func TestRunProgramsHonoursInterruptAndCheckpoint(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	var sunk []*Checkpoint
	s := newSession(t, smallConfig(), WithThreads(2),
		WithCheckpoint(1<<40, func(ck *Checkpoint) { sunk = append(sunk, ck) }),
		WithInterrupt(stop))
	// Long enough to outlast the first interrupt poll.
	prog := func(th *Thread) {
		for i := 0; i < 50_000; i++ {
			th.AMOStore(memory.AMOAdd, 0x1000, 1)
		}
		th.Fence()
	}
	if _, _, err := s.RunPrograms([]Program{prog, prog}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if len(sunk) == 0 {
		t.Fatal("the interrupted run sank no checkpoint")
	}
}

// New validates the whole Config, not only its policy: a bad cache
// geometry fails at construction instead of at the first run.
func TestNewValidatesConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Chi.L1Ways = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a zero-way L1")
	}
}

// A Config field no option sets is used as given, and an option
// overrides it.
func TestSessionHonoursConfigFields(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = "unique-near"
	cfg.Obs = NewObs()
	res, err := newSession(t, cfg, WithThreads(2)).RunCounter(10, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "unique-near" || res.Obs == nil {
		t.Fatalf("policy %q, obs report %v; want the Config's policy and bus", res.Policy, res.Obs)
	}
	res, err = newSession(t, cfg, WithThreads(2), WithPolicy("shared-far")).RunCounter(10, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "shared-far" {
		t.Fatalf("policy %q, want WithPolicy's shared-far", res.Policy)
	}
}

func TestSessionProfileRequiresObs(t *testing.T) {
	s, err := New(smallConfig(), WithThreads(2), WithProfile(NewProfiler(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RunPrograms([]Program{func(th *Thread) {}}); err == nil {
		t.Fatal("WithProfile without WithObs accepted")
	}
}

func TestPublicRunnerSweep(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(WithJobs(2), WithCacheDir(dir))
	req := SweepRequest{Workload: "tc", Threads: 2, Scale: 0.05}
	h1 := r.Submit(req)
	h2 := r.Submit(req)
	res1, err := h1.Result()
	if err != nil {
		t.Fatal(err)
	}
	res2, _ := h2.Result()
	if res1 != res2 {
		t.Fatal("duplicate submissions did not share a result")
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Requests != 2 || st.Submitted != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// A second runner on the same cache directory recalls the result.
	warm := NewRunner(WithJobs(2), WithCacheDir(dir))
	if _, err := warm.Run(req); err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Simulated() != 0 || st.DiskHits != 1 {
		t.Fatalf("warm stats = %+v", st)
	}
}

func TestPublicRunnerVariant(t *testing.T) {
	r := NewRunner(WithJobs(2))
	if _, err := r.Run(SweepRequest{Workload: "tc", Threads: 2, Scale: 0.05,
		Variant: "nonsense"}); err == nil {
		t.Fatal("unknown variant ran")
	}
	res, err := r.Run(SweepRequest{Workload: "tc", Threads: 2, Scale: 0.05,
		Variant: "noc-1c"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("variant run returned empty result")
	}
}
