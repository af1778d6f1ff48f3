// Package cliflags defines the flag spellings shared by every dynamo
// command, so -workload, -policy, -threads, -seed, -scale, -input,
// -json, -jobs and -cache-dir mean exactly the same thing in dynamosim,
// dynamo-experiments, dynamo-stats and dynamo-trace.
package cliflags

import "flag"

// DefaultCacheDir is where commands persist simulation results unless
// told otherwise. It is listed in .gitignore.
const DefaultCacheDir = "results/cache"

// Workload registers -workload: the workload name.
func Workload(fs *flag.FlagSet) *string {
	return fs.String("workload", "", "workload name (see -list)")
}

// Policy registers -policy: the AMO placement policy, defaulting to the
// paper's baseline.
func Policy(fs *flag.FlagSet) *string {
	return fs.String("policy", "all-near", "placement policy (see -list)")
}

// Threads registers -threads with the given default (commands differ:
// simulators default to the paper's 32 cores, trace recording to 8).
func Threads(fs *flag.FlagSet, def int) *int {
	return fs.Int("threads", def, "worker threads per simulation")
}

// Seed registers -seed: the workload generation seed.
func Seed(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 1, "workload generation seed")
}

// Scale registers -scale with the given default workload-size multiplier.
func Scale(fs *flag.FlagSet, def float64) *float64 {
	return fs.Float64("scale", def, "workload size multiplier")
}

// Input registers -input: the workload input variant.
func Input(fs *flag.FlagSet) *string {
	return fs.String("input", "", "workload input variant")
}

// JSON registers -json: machine-readable output instead of text.
func JSON(fs *flag.FlagSet) *bool {
	return fs.Bool("json", false, "emit JSON instead of text")
}

// Jobs registers -jobs: the concurrent-simulation bound of the sweep
// runner (0 = GOMAXPROCS).
func Jobs(fs *flag.FlagSet) *int {
	return fs.Int("jobs", 0, "concurrent simulations (0 = host cores)")
}

// CacheDir registers -cache-dir: the persistent result cache directory.
// An empty value disables persistence.
func CacheDir(fs *flag.FlagSet, def string) *string {
	return fs.String("cache-dir", def, "persistent result cache directory (empty = no persistence)")
}

// Check registers -check: attach the runtime protocol invariant sanitizer
// (SWMR and directory audits, occupancy bounds, end-of-run leak checks).
func Check(fs *flag.FlagSet) *bool {
	return fs.Bool("check", false, "attach the protocol invariant sanitizer")
}

// ChaosSeed registers -chaos-seed: the deterministic fault-injection seed.
func ChaosSeed(fs *flag.FlagSet) *int64 {
	return fs.Int64("chaos-seed", 0, "deterministic fault-injection seed (0 with -chaos-level set selects seed 1)")
}

// ChaosLevel registers -chaos-level: the fault-injection intensity.
func ChaosLevel(fs *flag.FlagSet) *int {
	return fs.Int("chaos-level", 0, "fault-injection intensity 0..3 (0 with -chaos-seed set selects level 1)")
}

// CkptEvery registers -ckpt-every: the periodic checkpoint interval in
// simulation events. Zero disables periodic checkpoints.
func CkptEvery(fs *flag.FlagSet) *uint64 {
	return fs.Uint64("ckpt-every", 0, "checkpoint every N simulation events (0 = off)")
}

// Retries registers -retries: bounded re-execution of transiently failed
// sweep jobs before quarantine.
func Retries(fs *flag.FlagSet) *int {
	return fs.Int("retries", 0, "retry transiently failed jobs up to N times before quarantine")
}
