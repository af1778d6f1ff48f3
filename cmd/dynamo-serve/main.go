// Command dynamo-serve hosts the sweep control plane: a long-running
// HTTP/JSON service over the sweep runner that accepts whole sweeps,
// schedules concurrent sweeps fairly through one lease table, and serves
// results out of the content-addressed cache.
//
// Usage:
//
//	dynamo-serve -cache-dir DIR [flags]
//
// Routes (see internal/service):
//
//	POST   /v1/sweeps               submit a sweep (JSON batch of requests)
//	GET    /v1/sweeps/{id}          sweep status, retries and ETA
//	DELETE /v1/sweeps/{id}          cancel a sweep
//	GET    /v1/jobs/{digest}        cached result document (raw bytes)
//	GET    /v1/jobs/{digest}/span   job trace span
//	GET    /metrics /progress /jobs telemetry
//
// Every job the cache cannot answer waits in the lease table, which
// grants jobs round-robin across sweeps to worker slots: -jobs
// in-process slots, plus any dynamo-worker processes pulling through
// POST /v1/work/lease (TTL lease + fencing token, held open until work
// arrives), heartbeating via POST /v1/work/{digest}/heartbeat, and
// committing via POST /v1/work/{digest}/result. -workers starts no
// in-process slots, so the fleet executes everything; fleet capacity is
// its slot count, not -jobs. A worker that stops heartbeating is presumed
// dead after -lease-ttl: its job requeues, resuming from the last
// checkpoint it shipped, and any commit under the stale fence is
// rejected. With -preempt, a starved sweep takes a slot from the
// best-fed one: that lease yields at its next checkpoint and requeues.
//
// The cache directory is the service's durable state: results, job
// checkpoints and accepted sweep documents all live there. SIGINT or
// SIGTERM drains gracefully — in-flight jobs checkpoint (with
// -ckpt-every) and stop, accepted sweeps stay persisted — and a restart
// with -resume re-admits the unfinished work, restoring interrupted jobs
// from their checkpoints, so clients waiting across the restart see
// their sweeps complete with byte-identical results.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dynamo/internal/cliflags"
	"dynamo/internal/faultio"
	"dynamo/internal/service"
	"dynamo/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8322", "listen address (host:port; :0 picks a free port)")
	cacheDir := cliflags.CacheDir(flag.CommandLine, cliflags.DefaultCacheDir)
	jobs := cliflags.Jobs(flag.CommandLine)
	retries := cliflags.Retries(flag.CommandLine)
	ckptEvery := cliflags.CkptEvery(flag.CommandLine)
	resume := flag.Bool("resume", false, "reload persisted sweeps; their interrupted jobs resume from their checkpoints")
	preempt := flag.Bool("preempt", false, "time-slice long jobs across sweeps at checkpoint boundaries (use with -ckpt-every)")
	maxQueued := flag.Int("max-queued", 0, "bound the admission queue: reject sweeps past this many pending jobs with HTTP 429 (0 = unbounded)")
	workers := flag.Bool("workers", false, "start no in-process worker slots: external dynamo-worker processes execute every job via /v1/work leases")
	leaseTTL := flag.Duration("lease-ttl", 0, "worker lease TTL before a silent worker is presumed dead and its job requeued (0 = 10s default)")
	faultSeed := flag.Int64("fault-seed", 0, "seed for the deterministic fault injector (with -fault-level)")
	faultLevel := flag.Int("fault-level", 0, "inject storage and network faults at this intensity, 0 = off (testing only)")
	faultBudget := flag.Int("fault-budget", -1, "stop injecting after this many faults (-1 = unlimited)")
	verbose, quiet := cliflags.Verbosity(flag.CommandLine)
	flag.Parse()

	log := cliflags.NewLogger(*verbose, *quiet)
	if *cacheDir == "" {
		log.Fatal("dynamo-serve: -cache-dir is required (the cache is what the service serves)")
	}
	if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
		log.Fatal(err)
	}

	// The structured job journal lives next to the cache it describes; a
	// journal failure degrades observability, never the service.
	var topts telemetry.SweepOptions
	if j, err := telemetry.OpenJournal(filepath.Join(*cacheDir, "journal.jsonl")); err == nil {
		topts.Journal = j
	} else {
		log.Errorf("dynamo-serve: %v", err)
	}
	tel := telemetry.NewSweep(topts)
	defer tel.Close()

	// The deterministic fault injector (testing only): same seed, same
	// faults. It wraps the storage plane here and the HTTP transport at
	// Serve below, and exports its counts on /metrics.
	var inj *faultio.Injector
	var middleware []func(http.Handler) http.Handler
	opts := service.Options{
		CacheDir:  *cacheDir,
		Jobs:      *jobs,
		Retries:   *retries,
		CkptEvery: *ckptEvery,
		Resume:    *resume,
		Telemetry: tel,
		Log:       log.DebugWriter(),
		Preempt:   *preempt,
		MaxQueued: *maxQueued,
		Workers:   *workers,
		LeaseTTL:  *leaseTTL,
	}
	if *faultLevel > 0 {
		inj = faultio.New(faultio.Level(*faultSeed, *faultLevel, *faultBudget))
		inj.Register(tel.Registry())
		opts.FS = inj.WrapFS(faultio.OS{})
		middleware = append(middleware, inj.WrapHandler)
		log.Infof("dynamo-serve: fault injection on (seed %d, level %d, budget %d)", *faultSeed, *faultLevel, *faultBudget)
	}
	svc, err := service.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := service.Serve(*addr, svc, middleware...)
	if err != nil {
		svc.Close()
		log.Fatal(err)
	}
	// The bound address goes to stdout so scripts starting the server
	// with :0 can read where it landed.
	fmt.Printf("http://%s\n", srv.Addr())
	log.Infof("dynamo-serve: serving sweeps on http://%s (cache %s)", srv.Addr(), *cacheDir)
	if *workers {
		ttl := *leaseTTL
		if ttl <= 0 {
			ttl = 10 * time.Second
		}
		log.Infof("dynamo-serve: no in-process slots; fleet workers lease jobs via /v1/work (lease TTL %s)", ttl)
	}

	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	<-signals
	signal.Stop(signals)

	// Graceful drain: stop accepting, interrupt in-flight jobs so they
	// checkpoint, keep accepted sweeps persisted for -resume.
	log.Infof("dynamo-serve: draining (in-flight jobs checkpoint, queue persists; restart with -resume)")
	if err := srv.Close(); err != nil {
		log.Errorf("dynamo-serve: %v", err)
	}
	if err := svc.Close(); err != nil {
		log.Errorf("dynamo-serve: %v", err)
	}
}
