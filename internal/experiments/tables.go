package experiments

import (
	"fmt"

	"dynamo/internal/chi"
	"dynamo/internal/core"
	"dynamo/internal/machine"
	"dynamo/internal/memory"
	"dynamo/internal/stats"
	"dynamo/internal/workload"
)

// TableI prints the static AMO policy decision table from the implemented
// policies (so the output is asserted against the code, not hand-copied).
func (s *Suite) TableI() (*stats.Table, error) {
	t := &stats.Table{Header: []string{"policy", "UC", "UD", "SC", "SD", "I"}}
	rows := []struct {
		name string
		p    *core.Static
	}{
		{"All Near (existing)", core.AllNear()},
		{"Unique Near (existing)", core.UniqueNear()},
		{"Present Near (proposed)", core.PresentNear()},
		{"Dirty Near (proposed)", core.DirtyNear()},
		{"Shared Far (proposed)", core.SharedFar()},
	}
	short := func(p chi.Placement) string {
		if p == chi.Near {
			return "N"
		}
		return "F"
	}
	for _, r := range rows {
		tab := r.p.Table()
		t.AddRow(r.name, short(tab[0]), short(tab[1]), short(tab[2]), short(tab[3]), short(tab[4]))
	}
	return t, nil
}

// TableII prints the simulated system configuration.
func (s *Suite) TableII() (*stats.Table, error) {
	cfg := machine.DefaultConfig()
	t := &stats.Table{Header: []string{"parameter", "value"}}
	kib := func(sets, ways int) string {
		return fmt.Sprintf("%d KiB, %d-way", sets*ways*memory.LineSize/1024, ways)
	}
	t.AddRow("Cores", fmt.Sprint(cfg.Chi.Cores))
	t.AddRow("Store buffer", fmt.Sprintf("%d posted ops", cfg.CPU.StoreBuffer))
	t.AddRow("L1D cache", kib(cfg.Chi.L1Sets, cfg.Chi.L1Ways)+fmt.Sprintf(", %d-cycle", cfg.Chi.L1Latency))
	t.AddRow("L2 cache", kib(cfg.Chi.L2Sets, cfg.Chi.L2Ways)+fmt.Sprintf(", %d-cycle", cfg.Chi.L2Latency))
	t.AddRow("LLC", fmt.Sprintf("%d slices x %d KiB, %d-way, %d-cycle data",
		cfg.Chi.HNSlices, cfg.Chi.LLCSets*cfg.Chi.LLCWays*memory.LineSize/1024, cfg.Chi.LLCWays, cfg.Chi.LLCDataLatency))
	t.AddRow("AMT (DynAMO)", fmt.Sprintf("%d entries, %d-way, counter max %d",
		cfg.AMT.Entries, cfg.AMT.Ways, cfg.AMT.CounterMax))
	t.AddRow("AMO buffer", fmt.Sprintf("%d entries per HN slice", cfg.Chi.AMOBufEntries))
	t.AddRow("NoC", fmt.Sprintf("%dx%d mesh, %d-cycle route + %d-cycle link",
		cfg.Chi.Mesh.Width, cfg.Chi.Mesh.Height, cfg.Chi.Mesh.RouteLatency, cfg.Chi.Mesh.LinkLatency))
	t.AddRow("Memory", fmt.Sprintf("HBM-class, %d channels, %d-cycle latency",
		cfg.Chi.Mem.Channels, cfg.Chi.Mem.Latency))
	return t, nil
}

// TableIII prints the workload registry: suite, synchronization primitives
// and the AMO footprint of each benchmark analog at the suite's size,
// computed from the sizes its builder allocates without building it.
func (s *Suite) TableIII() (*stats.Table, error) {
	t := &stats.Table{Header: []string{"workload", "code", "suite", "input", "sync primitives", "AMO footprint"}}
	for _, spec := range workload.All() {
		bytes, err := spec.AMOFootprint(workload.Params{Threads: s.opts.Threads, Seed: s.opts.Seed, Scale: s.opts.Scale})
		if err != nil {
			return nil, err
		}
		input := spec.DefaultInput()
		if input == "" {
			input = "synthetic"
		}
		fp := fmt.Sprintf("%d KB", bytes/1024)
		if bytes < 1024 {
			fp = fmt.Sprintf("%d B", bytes)
		}
		t.AddRow(spec.Name, spec.Code, spec.Suite, input, spec.Sync, fp)
	}
	return t, nil
}

// TableIV prints the qualitative comparison of synchronization
// alternatives, reproduced from the paper's Table IV.
func (s *Suite) TableIV() (*stats.Table, error) {
	t := &stats.Table{Header: []string{"solution", "transparent", "performance", "cost"}}
	t.AddRow("Far AMO", "yes", "no", "low")
	t.AddRow("Custom instructions", "no", "yes", "low")
	t.AddRow("Accelerators", "yes", "yes", "high")
	t.AddRow("Custom networks", "yes", "yes", "high")
	t.AddRow("Parallel reductions", "no", "yes", "high")
	t.AddRow("Core to core", "no", "yes", "low")
	t.AddRow("DynAMO", "yes", "yes", "low")
	return t, nil
}

// Energy reproduces the Section VI-E analysis: dynamic energy of Unique
// Near and DynAMO-Reuse-PN relative to All Near, per APKI set, plus the
// NoC-only ratio that grows for far-heavy workloads.
func (s *Suite) Energy() (*stats.Table, error) {
	policies := []string{"unique-near", "dynamo-reuse-pn"}
	if err := s.prefetchPolicies(policies, ""); err != nil {
		return nil, err
	}
	lmh, mh, h := classSets()
	low := make([]string, 0)
	for _, spec := range workload.All() {
		if spec.Class == workload.Low {
			low = append(low, spec.Name)
		}
	}
	_ = lmh
	sets := []struct {
		name  string
		names []string
	}{{"Low", low}, {"Medium+High", mh}, {"High", h}}
	t := &stats.Table{Header: []string{"set", "unique-near energy", "dynamo-reuse-pn energy", "dynamo NoC energy"}}
	ratio := func(wl, policy string) (total, nocOnly float64, err error) {
		base, err := s.run(runKey{workload: wl, policy: "all-near", threads: s.opts.Threads})
		if err != nil {
			return 0, 0, err
		}
		res, err := s.run(runKey{workload: wl, policy: policy, threads: s.opts.Threads})
		if err != nil {
			return 0, 0, err
		}
		return res.Energy.Total() / base.Energy.Total(), res.Energy.NoC / base.Energy.NoC, nil
	}
	for _, set := range sets {
		var un, pn, pnNoc []float64
		for _, wl := range set.names {
			u, _, err := ratio(wl, "unique-near")
			if err != nil {
				return nil, err
			}
			p, n, err := ratio(wl, "dynamo-reuse-pn")
			if err != nil {
				return nil, err
			}
			un = append(un, u)
			pn = append(pn, p)
			pnNoc = append(pnNoc, n)
		}
		t.AddRow(set.name, stats.F(stats.Geomean(un)), stats.F(stats.Geomean(pn)), stats.F(stats.Geomean(pnNoc)))
	}
	return t, nil
}

// HardwareCost reproduces the Section VI-G estimate: AMT bits per entry
// and bytes per core for the default and swept configurations.
func (s *Suite) HardwareCost() (*stats.Table, error) {
	t := &stats.Table{Header: []string{"AMT config", "bits/entry", "padded", "bytes/core"}}
	for _, cfg := range []core.AMTConfig{
		{Entries: 32, Ways: 4, CounterMax: 32},
		{Entries: 64, Ways: 4, CounterMax: 32},
		core.DefaultAMTConfig(),
		{Entries: 256, Ways: 4, CounterMax: 32},
		{Entries: 512, Ways: 4, CounterMax: 32},
	} {
		c := core.CostOf(cfg)
		t.AddRow(fmt.Sprintf("%d entries, %d-way, %d counter", cfg.Entries, cfg.Ways, cfg.CounterMax),
			fmt.Sprint(c.BitsPerEntry), fmt.Sprint(c.PaddedBitsPerEntry), fmt.Sprint(c.Bytes))
	}
	return t, nil
}
