// Package regress canonicalises a run's metrics into a deterministic
// snapshot and diffs two snapshots under configurable tolerances. It is
// the engine behind cmd/dynamo-stats and the CI baseline gate: a snapshot
// committed from a known-good run is compared against a fresh run of the
// same configuration, and any metric drifting past tolerance is a
// regression.
package regress

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"dynamo/internal/machine"
)

// Snapshot is the canonical form of one run: identifying metadata plus a
// flat metric map. JSON encoding is deterministic (Go sorts map keys), so
// identical runs produce byte-identical snapshots.
type Snapshot struct {
	Meta    map[string]string  `json:"meta"`
	Metrics map[string]float64 `json:"metrics"`
}

// FromResult canonicalises a run result. meta identifies the run
// configuration (workload, policy, threads, seed, ...) and is compared
// verbatim by Diff; every counter and summary metric lands in Metrics
// under a stable dotted name.
func FromResult(meta map[string]string, res *machine.Result) *Snapshot {
	s := &Snapshot{Meta: meta, Metrics: map[string]float64{}}
	put := func(name string, v float64) { s.Metrics[name] = v }
	putU := func(name string, v uint64) { put(name, float64(v)) }

	putU("cycles", uint64(res.Cycles))
	putU("instructions", res.Instructions)
	putU("amos", res.AMOs)
	putU("amo-loads", res.AMOLoads)
	putU("amo-stores", res.AMOStores)
	putU("near-local", res.NearLocal)
	putU("near-txn", res.NearTxn)
	putU("far", res.Far)
	put("apki", res.APKI)
	put("avg-amo-latency", res.AvgAMOLatency)

	putU("noc.messages", res.NoC.Messages)
	putU("noc.flits", res.NoC.Flits)
	putU("noc.flit-hops", res.NoC.FlitHops)
	putU("noc.hops", res.NoC.Hops)
	putU("noc.queue-wait", res.NoC.QueueWait)
	putU("mem.reads", res.Mem.Reads)
	putU("mem.writes", res.Mem.Writes)
	putU("mem.queue-wait", res.Mem.QueueWait)
	put("energy.caches", res.Energy.Caches)
	put("energy.noc", res.Energy.NoC)
	put("energy.memory", res.Energy.Memory)

	if res.Detail != nil {
		for _, name := range res.Detail.Names() {
			put("detail."+name, float64(res.Detail.Get(name)))
		}
	}
	if res.Obs != nil {
		for _, c := range res.Obs.Counters {
			put("obs."+c.Name, float64(c.Value))
		}
		for _, h := range res.Obs.Classes {
			put("obs.class."+h.Name+".count", float64(h.Count))
			put("obs.class."+h.Name+".mean", h.Mean)
		}
	}
	return s
}

// WriteJSON writes the snapshot with stable formatting.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Read parses a snapshot.
func Read(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("regress: parsing snapshot: %w", err)
	}
	return &s, nil
}

// Tolerance bounds acceptable drift per metric: a metric passes when
// |b-a| <= Abs or the relative error |b-a|/max(|a|,|b|) <= Rel.
type Tolerance struct {
	// Rel is the relative tolerance (0.02 = 2%).
	Rel float64
	// Abs is the absolute slack, useful for near-zero metrics.
	Abs float64
	// PerMetric overrides Rel for specific metric names.
	PerMetric map[string]float64
}

// Drift is one metric (or meta key) outside tolerance.
type Drift struct {
	Key      string  `json:"key"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// RelErr is |current-baseline| / max(|baseline|, |current|).
	RelErr float64 `json:"rel_err"`
	// Meta marks a metadata mismatch (values are meaningless then).
	Meta string `json:"meta,omitempty"`
}

func (d Drift) String() string {
	if d.Meta != "" {
		return fmt.Sprintf("meta %-24s %s", d.Key, d.Meta)
	}
	return fmt.Sprintf("%-32s %12g -> %12g (%+.2f%%)", d.Key, d.Baseline, d.Current, 100*d.RelErr)
}

// Diff compares current against baseline and returns every drift, sorted
// by key. Metrics present in only one snapshot always drift: a metric
// disappearing (or appearing) is a behavioural change the tolerance
// cannot excuse.
func Diff(baseline, current *Snapshot, tol Tolerance) []Drift {
	var out []Drift
	for _, k := range unionKeys(baseline.Meta, current.Meta) {
		a, aok := baseline.Meta[k]
		b, bok := current.Meta[k]
		if a != b {
			out = append(out, Drift{Key: k, Meta: metaMismatch(a, aok, b, bok)})
		}
	}
	for _, k := range unionMetricKeys(baseline.Metrics, current.Metrics) {
		a, aok := baseline.Metrics[k]
		b, bok := current.Metrics[k]
		if !aok || !bok {
			out = append(out, Drift{Key: k, Baseline: a, Current: b, RelErr: 1,
				Meta: metaMismatch(fmt.Sprint(a), aok, fmt.Sprint(b), bok)})
			continue
		}
		if rel, ok := drifted(a, b, tol.metricTol(k), tol.Abs); ok {
			out = append(out, Drift{Key: k, Baseline: a, Current: b, RelErr: rel})
		}
	}
	return out
}

func (t Tolerance) metricTol(name string) float64 {
	if r, ok := t.PerMetric[name]; ok {
		return r
	}
	return t.Rel
}

// drifted reports whether a->b exceeds tolerance, and the relative error.
func drifted(a, b, rel, abs float64) (float64, bool) {
	diff := math.Abs(b - a)
	if diff == 0 || diff <= abs {
		return 0, false
	}
	denom := math.Max(math.Abs(a), math.Abs(b))
	r := diff / denom
	return r, r > rel
}

func metaMismatch(a string, aok bool, b string, bok bool) string {
	switch {
	case !aok:
		return fmt.Sprintf("only in current (%q)", b)
	case !bok:
		return fmt.Sprintf("only in baseline (%q)", a)
	default:
		return fmt.Sprintf("%q -> %q", a, b)
	}
}

func unionKeys(a, b map[string]string) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func unionMetricKeys(a, b map[string]float64) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
