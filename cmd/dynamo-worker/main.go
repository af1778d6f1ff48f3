// Command dynamo-worker is one fleet process of the distributed
// execution tier: it pulls simulation jobs from a dynamo-serve instance
// running with -workers, executes them locally, and commits results
// under fenced TTL leases.
//
// Usage:
//
//	dynamo-worker -addr HOST:PORT [flags]
//
// Protocol (see internal/service): each job is pulled via POST
// /v1/work/lease under a TTL lease with a fencing token; the server holds
// the call open until work arrives, so an idle worker costs one request
// per hold and picks up new work at once. While the job
// runs, the worker heartbeats via POST /v1/work/{digest}/heartbeat —
// renewing the lease and shipping the job's latest checkpoint bytes — and
// finally commits via POST /v1/work/{digest}/result. If this process is
// SIGKILLed, the server revokes the lease after the TTL and re-grants the
// job to another worker, which resumes from the last shipped checkpoint;
// any late commit from this process is fenced. SIGINT/SIGTERM drain
// gracefully: in-flight jobs stop at their next checkpoint boundary, the
// final checkpoint ships, and the leases release.
//
// All calls retry with jittered exponential backoff, so the fleet rides
// out server restarts. The -fault-* flags wrap the worker's HTTP
// transport with the deterministic fault injector (testing only), so
// lease, heartbeat and commit loss are reproducible.
package main

import (
	"flag"
	"os"
	"os/signal"
	"syscall"

	"dynamo/internal/cliflags"
	"dynamo/internal/faultio"
	"dynamo/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8322", "sweep server address (host:port; dynamo-serve -workers)")
	id := flag.String("id", "", "worker identity in leases and telemetry (default host:pid)")
	slots := flag.Int("slots", 1, "jobs executing concurrently in this worker")
	ttl := flag.Duration("ttl", 0, "lease TTL to request (0 = server default)")
	heartbeat := flag.Duration("heartbeat", 0, "lease renewal cadence (0 = a third of the granted TTL)")
	faultSeed := flag.Int64("fault-seed", 0, "seed for the deterministic fault injector (with -fault-level)")
	faultLevel := flag.Int("fault-level", 0, "inject transport faults at this intensity, 0 = off (testing only)")
	faultBudget := flag.Int("fault-budget", -1, "stop injecting after this many faults (-1 = unlimited)")
	verbose, quiet := cliflags.Verbosity(flag.CommandLine)
	flag.Parse()

	log := cliflags.NewLogger(*verbose, *quiet)
	opts := service.WorkerOptions{
		Addr:      *addr,
		ID:        *id,
		Slots:     *slots,
		TTL:       *ttl,
		Heartbeat: *heartbeat,
		Log:       log.DebugWriter(),
	}
	if *faultLevel > 0 {
		inj := faultio.New(faultio.Level(*faultSeed, *faultLevel, *faultBudget))
		opts.Transport = inj.WrapTransport(nil)
		log.Infof("dynamo-worker: fault injection on (seed %d, level %d, budget %d)", *faultSeed, *faultLevel, *faultBudget)
	}
	w := service.NewWorker(opts)
	w.Start()
	log.Infof("dynamo-worker: %s pulling work from %s (%d slot(s))", w.ID(), *addr, *slots)

	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	<-signals
	signal.Stop(signals)

	// Graceful drain: finish-or-checkpoint, ship the final checkpoint,
	// release the leases. A SIGKILL instead of this path is survivable too
	// — the server's lease expiry reassigns the work.
	log.Infof("dynamo-worker: draining (in-flight jobs checkpoint and release)")
	w.Drain()
	st := w.Stats()
	log.Infof("dynamo-worker: done — %d leased, %d committed (%d dup), %d resumed, %d released, %d fenced, %d abandoned, %d failed",
		st.Leases, st.Committed, st.Duplicates, st.Resumed, st.Released, st.Fenced, st.Abandoned, st.Failed)
}
