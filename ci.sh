#!/bin/sh
# Tier-1 check: formatting, vet, build, full test suite, then the
# stats-regression gate: fresh snapshots of a smoke set of runs are diffed
# against the committed baselines in testdata/baselines/ and any metric
# drift fails the build. Regenerate baselines after an intentional
# behaviour change with: ./ci.sh -update-baselines
# A dynamosim smoke resumes a run from its -ckpt file and compares the
# output with a plain run's, once unperturbed and once sanitized under
# chaos. The digest gate hashes a cold seed-1 quick suite's tables
# against the seed-1 entry of perfbench/golden.json, and the warm-cache
# gate reruns it over its own cache: same tables, no simulation, no
# eviction.
# Finally the crash-recovery gate SIGKILLs a sweep once its first
# checkpoint lands and asserts a rerun with the same flags resumes every
# job the kill left a checkpoint for and reproduces the uninterrupted
# tables byte-for-byte, and the soak gate repeatedly SIGKILLs and
# -resume-restarts the sweep *server* under deterministic
# storage/network fault injection, asserting the
# remote tables still come out byte-identical with no quarantine leaks.
# The worker-fleet soak gate runs the same sweep through a fleet of
# dynamo-worker processes under repeated worker SIGKILLs: lease expiry
# must reassign the dead workers' jobs (resuming from shipped
# checkpoints) and the tables must still match byte-for-byte.
set -eu
cd "$(dirname "$0")"

update=0
if [ "${1:-}" = "-update-baselines" ]; then
	update=1
fi

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
go test ./...

# The benchmark module (perfbench/) builds against the facade and the
# internal packages but is its own module, so `go vet ./...` above skips
# it: vet it here, so an API change that breaks the benchmark fails now
# rather than at benchmark time.
(cd perfbench && GOWORK=off GOPROXY=off go vet ./...)
# Its unit tests and one smoke run of every workload, untraced and
# traced, so the benchmark cannot rot between the changes that run it.
(cd perfbench && GOWORK=off GOPROXY=off go test ./...)

# Sweep-runner smoke under the race detector: serial, parallel and
# warm-cache runs must render byte-identical tables, and a warm cache
# must simulate nothing.
go test -race -run TestParallelSerialDeterminism ./internal/experiments

# Program coroutines under the race detector: the handoff between each
# program and its core, Abort, pause/resume on another goroutine and a
# program's panic unwinding the run.
go test -race ./internal/cpu ./internal/machine
# A program's run-ahead queue is written on its goroutine and read on the
# engine's: repeat the tests that hand it across, abort it, panic through
# it, resume it on another goroutine and spin in the core for it.
go test -race -count=10 -run 'RunsAhead|RunAhead|QueuedOperations|Abort|Panic|Resume|Spin' \
	./internal/cpu ./internal/machine

# Robustness gate: invariant-checked runs through the CLI (sanitizer on,
# deterministic chaos on) must finish clean, and the committed chaos
# fuzz corpus must hold the metamorphic property.
for wl in histogram tc spmv; do
	echo "ci: invariant-checked run: $wl"
	go run ./cmd/dynamosim -workload "$wl" -threads 4 -scale 0.1 \
		-check -chaos-seed 1 -chaos-level 2 >/dev/null
done
go test -run Fuzz ./internal/chaos

# Microbenchmark smoke: one iteration of every kernel, core, cache,
# mesh, memory, predictor, telemetry, machine, digest, cache-entry codec,
# checkpoint read/write, remote-job (HTTP/lease round trip) and
# local-job (BenchmarkExecuteLocal, new machine or slot arena) benchmark,
# so the bodies the benchmark's per-layer rows mirror keep compiling and
# running, of the probe-bus (sanitizer included) and self-profiler
# overhead benchmarks EXPERIMENTS.md reports, and of Table III, whose
# footprints come from the workload specs without building a workload.
go test -run '^$' -bench . -benchtime 1x ./internal/sim ./internal/cpu ./internal/cache \
	./internal/noc ./internal/hbm ./internal/memory ./internal/core ./internal/telemetry ./internal/machine \
	./internal/runner ./internal/stats ./internal/checkpoint ./internal/service
go test -run '^$' -bench 'ProbeBus|SelfProfiler|TableIII' -benchtime 1x .

# Baseline gate: workload x policy smoke set on the small 4-core system.
# One snapshot per pair; zero tolerance — the simulator is deterministic,
# so any drift is a real behaviour change.
baselines=testdata/baselines
mkdir -p "$baselines"
stats=$(mktemp -d)
trap 'rm -rf "$stats"' EXIT
go build -o "$stats/dynamo-stats" ./cmd/dynamo-stats

for run in \
	"histogram all-near" \
	"histogram dynamo-reuse-pn" \
	"tc unique-near"; do
	set -- $run
	wl=$1
	policy=$2
	name="$wl-$policy.json"
	"$stats/dynamo-stats" snapshot -workload "$wl" -policy "$policy" \
		-threads 4 -scale 0.1 -small -o "$stats/$name"
	if [ "$update" = 1 ] || [ ! -f "$baselines/$name" ]; then
		cp "$stats/$name" "$baselines/$name"
		echo "ci: baseline updated: $baselines/$name"
	else
		echo "ci: diffing $name against baseline"
		"$stats/dynamo-stats" diff "$baselines/$name" "$stats/$name"
	fi
done

# Checkpoint smoke: dynamosim's -ckpt writer and -resume reader. A run
# resumed from the last periodic checkpoint must print the same JSON as a
# plain run.
go build -o "$stats/dynamosim" ./cmd/dynamosim
sim() { "$stats/dynamosim" -workload histogram -threads 4 -scale 0.1 -json "$@"; }
sim >"$stats/sim-plain.json"
sim -ckpt "$stats/sim.ckpt" -ckpt-every 20000 >/dev/null
sim -resume "$stats/sim.ckpt" >"$stats/sim-resumed.json"
cmp "$stats/sim-plain.json" "$stats/sim-resumed.json"
echo "ci: dynamosim resumed from its checkpoint to byte-identical output"
# The same triple under the sanitizer and chaos: the injector is part of
# the run's configuration and its stream positions ride in the checkpoint.
chaos="-check -chaos-seed 3 -chaos-level 2"
sim $chaos >"$stats/sim-chaos-plain.json"
sim $chaos -ckpt "$stats/sim-chaos.ckpt" -ckpt-every 20000 >/dev/null
sim $chaos -resume "$stats/sim-chaos.ckpt" >"$stats/sim-chaos-resumed.json"
cmp "$stats/sim-chaos-plain.json" "$stats/sim-chaos-resumed.json"
echo "ci: chaotic dynamosim resumed from its checkpoint to byte-identical output"

# Quick-suite digest gate: every table of a cold seed-1 quick suite must
# hash to the digest the benchmark records for seed 1 in
# perfbench/golden.json (read here, never written). A change meant to
# keep the simulation byte-identical is checked against an absolute
# reference, not only against its own clean run.
go build -o "$stats/dynamo-experiments" ./cmd/dynamo-experiments
want_digest=$(sed -n '/"quick": {/,/}/ s/^ *"1": "\([0-9a-f]*\)".*/\1/p' perfbench/golden.json)
[ -n "$want_digest" ] || { echo "ci: no seed-1 quick digest in perfbench/golden.json" >&2; exit 1; }
got_digest=$("$stats/dynamo-experiments" -quick -jobs 2 -seed 1 -cache-dir "" 2>/dev/null | sha256sum | cut -d' ' -f1)
[ "$got_digest" = "$want_digest" ] || {
	echo "ci: quick suite tables hash to $got_digest, golden.json says $want_digest" >&2
	exit 1
}
echo "ci: quick suite tables match the golden seed-1 digest"

# Warm-cache gate: a second seed-1 quick suite over the cache a first one
# filled must render the same golden tables from disk alone. Its runner
# line must count no simulation and no eviction: an evicted entry
# re-simulates to the same tables, so the digest alone would not notice a
# cache-entry decoder that rejects good entries.
warm="$stats/warm-cache"
"$stats/dynamo-experiments" -quick -jobs 2 -seed 1 -cache-dir "$warm" >/dev/null 2>&1
got_digest=$("$stats/dynamo-experiments" -quick -jobs 2 -seed 1 -cache-dir "$warm" \
	2>"$stats/warm.err" | sha256sum | cut -d' ' -f1)
[ "$got_digest" = "$want_digest" ] || {
	echo "ci: warm quick suite tables hash to $got_digest, golden.json says $want_digest" >&2
	exit 1
}
grep '^runner: ' "$stats/warm.err" | grep ' 0 simulated,' | grep ' 503 disk hits,' | grep -q ' 0 evictions' || {
	echo "ci: warm quick suite did not answer from the cache alone:" >&2
	cat "$stats/warm.err" >&2
	exit 1
}
echo "ci: warm quick suite served 503 disk hits with no simulation or eviction"

# Crash-recovery gate: a sweep SIGKILLed mid-run, rerun with the same
# flags, must resume from its checkpoints and complete with tables
# byte-identical to an uninterrupted sweep. The kill lands as soon as the
# first checkpoint file appears. The runner removes a job's checkpoint
# before it saves the job's result, so every checkpoint the kill leaves
# belongs to a job with no result, and the rerun must resume exactly that
# many. A kill that leaves none (the sweep outran the poll) is retried
# with a fresh cache, at most 3 times.
rcache="$stats/recovery-cache"
"$stats/dynamo-experiments" -quick -jobs 4 -cache-dir "$rcache" \
	fig7 >"$stats/fig7-want.txt" 2>/dev/null
left=0
for attempt in 1 2 3; do
	rm -rf "$rcache"
	"$stats/dynamo-experiments" -quick -jobs 2 -cache-dir "$rcache" \
		-ckpt-every 2000 fig7 >/dev/null 2>&1 &
	sweep=$!
	for _ in $(seq 1 1000); do
		ls "$rcache"/*.ckpt.json >/dev/null 2>&1 && break
		kill -0 "$sweep" 2>/dev/null || break
		sleep 0.01
	done
	kill -9 "$sweep" 2>/dev/null || true
	wait "$sweep" 2>/dev/null || true
	left=$(ls "$rcache" 2>/dev/null | grep -c '\.ckpt\.json$' || true)
	[ "$left" -gt 0 ] && break
	echo "ci: recovery kill $attempt left no checkpoint, retrying"
done
[ "$left" -gt 0 ] || { echo "ci: 3 recovery kills left no checkpoint to resume" >&2; exit 1; }
echo "ci: resuming killed sweep from $left checkpoint(s)"
"$stats/dynamo-experiments" -quick -jobs 2 -cache-dir "$rcache" \
	-ckpt-every 2000 fig7 >"$stats/fig7-got.txt" 2>"$stats/fig7-resume.err"
grep '^runner: ' "$stats/fig7-resume.err" | grep -Eq ", $left resumed[ ,]" || {
	echo "ci: the rerun did not resume the $left checkpoint(s) the kill left:" >&2
	cat "$stats/fig7-resume.err" >&2
	exit 1
}
cmp "$stats/fig7-want.txt" "$stats/fig7-got.txt"
echo "ci: killed sweep resumed $left job(s) to byte-identical tables"

# Telemetry gate: a served sweep must expose live /metrics, /progress and
# /jobs endpoints whose counts agree with the sweep's own summary, and
# serving must not perturb stdout — the tables stay byte-identical to the
# unserved fig7 run above. The stderr runner: line, printed once the sweep
# ends, must agree with /progress too: its jobs with total_jobs, and its
# simulated plus disk hits with done_jobs. The instruments are pure
# atomics; re-check the package under the race detector.
go test -race ./internal/telemetry
echo "ci: telemetry gate"
tcache="$stats/telemetry-cache"
"$stats/dynamo-experiments" -quick -jobs 4 -cache-dir "$tcache" \
	-serve 127.0.0.1:0 -serve-grace 60s fig7 \
	>"$stats/fig7-served.txt" 2>"$stats/fig7-serve.err" &
served=$!
addr=""
for _ in $(seq 1 50); do
	addr=$(sed -n 's!.*serving telemetry on http://!!p' "$stats/fig7-serve.err" | head -1)
	[ -n "$addr" ] && break
	sleep 0.2
done
[ -n "$addr" ] || { echo "ci: telemetry server never announced an address" >&2; exit 1; }
done_jobs=0
total_jobs=-1
for _ in $(seq 1 120); do
	progress=$(curl -fsS "http://$addr/progress") || { sleep 0.5; continue; }
	done_jobs=$(echo "$progress" | sed -n 's/.*"done_jobs": \([0-9]*\).*/\1/p')
	total_jobs=$(echo "$progress" | sed -n 's/.*"total_jobs": \([0-9]*\).*/\1/p')
	[ -n "$done_jobs" ] && [ "$done_jobs" -gt 0 ] && [ "$done_jobs" = "$total_jobs" ] && break
	sleep 0.5
done
[ "$done_jobs" -gt 0 ] && [ "$done_jobs" = "$total_jobs" ] || {
	echo "ci: sweep never converged on /progress (done=$done_jobs total=$total_jobs)" >&2
	exit 1
}
runner_line=""
for _ in $(seq 1 120); do
	runner_line=$(grep '^runner: [0-9]* requests -> ' "$stats/fig7-serve.err" | head -1)
	[ -n "$runner_line" ] && break
	sleep 0.5
done
[ -n "$runner_line" ] || { echo "ci: served sweep never printed its runner: line" >&2; exit 1; }
final=$(curl -fsS "http://$addr/progress")
final_done=$(echo "$final" | sed -n 's/.*"done_jobs": \([0-9]*\).*/\1/p')
final_total=$(echo "$final" | sed -n 's/.*"total_jobs": \([0-9]*\).*/\1/p')
line_jobs=$(echo "$runner_line" | sed -n 's/.* -> \([0-9]*\) jobs: .*/\1/p')
line_sim=$(echo "$runner_line" | sed -n 's/.* jobs: \([0-9]*\) simulated, .*/\1/p')
line_disk=$(echo "$runner_line" | sed -n 's/.* \([0-9]*\) disk hits.*/\1/p')
[ -n "$line_jobs" ] && [ -n "$line_sim" ] && [ -n "$line_disk" ] && [ -n "$final_done" ] &&
	[ "$line_jobs" = "$final_total" ] && [ $((line_sim + line_disk)) = "$final_done" ] || {
	echo "ci: runner: line disagrees with /progress (total=$final_total done=$final_done):" >&2
	echo "$runner_line" >&2
	exit 1
}
curl -fsS "http://$addr/metrics" >"$stats/metrics.txt"
for family in \
	dynamo_sweep_requests_total dynamo_sweep_jobs_total \
	dynamo_sweep_cache_total dynamo_sweep_job_duration_seconds_bucket \
	dynamo_sweep_workers; do
	grep -q "^$family" "$stats/metrics.txt" || {
		echo "ci: /metrics missing family $family" >&2
		exit 1
	}
done
metric_done=$(sed -n 's/^dynamo_sweep_jobs_total{state="done"} \([0-9]*\)$/\1/p' "$stats/metrics.txt")
[ "$metric_done" = "$done_jobs" ] || {
	echo "ci: /metrics done count $metric_done != /progress $done_jobs" >&2
	exit 1
}
metric_workers=$(sed -n 's/^dynamo_sweep_workers \([0-9]*\)$/\1/p' "$stats/metrics.txt")
[ "$metric_workers" = 4 ] || {
	echo "ci: /metrics dynamo_sweep_workers = $metric_workers, want the 4 of -jobs 4" >&2
	exit 1
}
curl -fsS "http://$addr/jobs?n=4" | grep -q '"digest"' || {
	echo "ci: /jobs returned no trace spans" >&2
	exit 1
}
kill -INT "$served" 2>/dev/null || true
wait "$served" 2>/dev/null || true
cmp "$stats/fig7-want.txt" "$stats/fig7-served.txt"
echo "ci: served sweep scraped clean with byte-identical tables ($done_jobs jobs)"

# Sweep-service gate: the HTTP control plane must run a remote quick
# suite with stdout tables byte-identical to the local run, survive a
# SIGTERM mid-sweep (in-flight jobs checkpoint, accepted sweeps persist,
# the client rides out the refused connections), complete the same work
# after a -resume restart on the same cache, and answer a rerun entirely
# from that cache. The scheduler and wire layers are concurrent;
# re-check the package under the race detector (the runner too — its
# checkpoint sink runs on the lease table's heartbeat path — and the fault
# injector, which sits on the hot path of both planes). The runner's
# loaders, which answer disk hits off a shared queue, get ten more rounds
# of concurrent hits, misses and duplicates.
go test -race ./internal/service ./internal/runner ./internal/faultio
go test -race -count=10 -run TestLoadersUnderConcurrency ./internal/runner
echo "ci: sweep service gate"
go build -o "$stats/dynamo-serve" ./cmd/dynamo-serve
scache="$stats/service-cache"
"$stats/dynamo-serve" -addr 127.0.0.1:0 -cache-dir "$scache" \
	-ckpt-every 20000 -quiet >"$stats/serve-addr.txt" 2>/dev/null &
serve=$!
saddr=""
for _ in $(seq 1 50); do
	saddr=$(sed -n 's!^http://!!p' "$stats/serve-addr.txt" | head -1)
	[ -n "$saddr" ] && break
	sleep 0.2
done
[ -n "$saddr" ] || { echo "ci: dynamo-serve never announced an address" >&2; exit 1; }
"$stats/dynamo-experiments" -quick -jobs 4 -cache-dir "" -remote "$saddr" \
	fig7 >"$stats/fig7-remote.txt" 2>/dev/null &
rsweep=$!
sleep 1
echo "ci: SIGTERM mid-sweep, restarting dynamo-serve with -resume"
kill -TERM "$serve" 2>/dev/null || echo "ci: remote sweep finished before the kill"
wait "$serve" 2>/dev/null || true
"$stats/dynamo-serve" -addr "$saddr" -cache-dir "$scache" \
	-ckpt-every 20000 -resume -quiet >/dev/null 2>&1 &
serve=$!
wait "$rsweep"
cmp "$stats/fig7-want.txt" "$stats/fig7-remote.txt"
# Rerun: the server's cache answers everything; tables stay identical.
"$stats/dynamo-experiments" -quick -jobs 4 -cache-dir "" -remote "$saddr" \
	fig7 >"$stats/fig7-remote2.txt" 2>/dev/null
cmp "$stats/fig7-want.txt" "$stats/fig7-remote2.txt"
kill -TERM "$serve" 2>/dev/null || true
wait "$serve" 2>/dev/null || true
echo "ci: remote sweep survived a server restart with byte-identical tables"

# Crash-restart soak gate: a remote quick sweep against a server running
# with preemption AND deterministic storage/network fault injection, while
# the server is repeatedly SIGKILLed (no graceful drain) and restarted
# with -resume on the same cache. The client rides out the dead windows,
# the checkpoints carry the in-flight work across each crash, and at the
# end: tables byte-identical to the clean local baseline, zero quarantine
# markers, and the queued/running gauges drained to zero.
echo "ci: crash-restart soak gate (3 SIGKILL cycles under injected faults)"
kcache="$stats/soak-cache"
soak_server() {
	# $1: listen address; $2: extra flag (-resume) or empty.
	"$stats/dynamo-serve" -addr "$1" -cache-dir "$kcache" \
		-ckpt-every 20000 -preempt \
		-fault-seed 9 -fault-level 2 -fault-budget 40 \
		$2 -quiet >"$stats/soak-addr.txt" 2>/dev/null &
	soak=$!
}
soak_server 127.0.0.1:0 ""
kaddr=""
for _ in $(seq 1 50); do
	kaddr=$(sed -n 's!^http://!!p' "$stats/soak-addr.txt" | head -1)
	[ -n "$kaddr" ] && break
	sleep 0.2
done
[ -n "$kaddr" ] || { echo "ci: soak server never announced an address" >&2; exit 1; }
"$stats/dynamo-experiments" -quick -jobs 4 -cache-dir "" \
	-remote "$kaddr" -remote-deadline 120s \
	fig7 >"$stats/fig7-soak.txt" 2>/dev/null &
ksweep=$!
cycles=0
while [ "$cycles" -lt 3 ]; do
	# A quick fig7 sweep through a server takes about a second, so kill
	# well inside it.
	sleep 0.25
	if ! kill -0 "$ksweep" 2>/dev/null; then
		echo "ci: soak sweep finished after $cycles kill cycle(s)"
		break
	fi
	kill -9 "$soak" 2>/dev/null || true
	wait "$soak" 2>/dev/null || true
	cycles=$((cycles + 1))
	echo "ci: soak kill cycle $cycles, restarting dynamo-serve with -resume"
	soak_server "$kaddr" -resume
done
wait "$ksweep" || { echo "ci: soak sweep failed" >&2; exit 1; }
cmp "$stats/fig7-want.txt" "$stats/fig7-soak.txt"
leaked=$(find "$kcache" -name '*.failed.json' 2>/dev/null)
[ -z "$leaked" ] || { echo "ci: soak leaked quarantine markers:" >&2; echo "$leaked" >&2; exit 1; }
queued=-1
running=-1
for _ in $(seq 1 60); do
	metrics=$(curl -fsS "http://$kaddr/metrics") || { sleep 0.5; continue; }
	queued=$(echo "$metrics" | sed -n 's/^dynamo_sweep_jobs_queued \([0-9]*\)$/\1/p')
	running=$(echo "$metrics" | sed -n 's/^dynamo_sweep_jobs_running \([0-9]*\)$/\1/p')
	[ "$queued" = 0 ] && [ "$running" = 0 ] && break
	sleep 0.5
done
[ "$queued" = 0 ] && [ "$running" = 0 ] || {
	echo "ci: soak gauges never drained (queued=$queued running=$running)" >&2
	exit 1
}
echo "$metrics" | grep -q '^dynamo_faultio_injected_total' || {
	echo "ci: soak server exported no fault-injection counters" >&2
	exit 1
}
kill -TERM "$soak" 2>/dev/null || true
wait "$soak" 2>/dev/null || true
echo "ci: soak survived $cycles SIGKILL cycle(s) under faults with byte-identical tables"

# Worker-fleet soak gate: the same quick suite served by dynamo-serve
# -workers, executed by a fleet of three dynamo-worker processes while the
# gate repeatedly SIGKILLs one of them (no drain, no release) and starts a
# replacement. Lease expiry must detect each death, requeue the job to
# resume from its last shipped checkpoint, and fence any late commit; at
# the end the tables are byte-identical to the clean local baseline, no
# quarantine markers leaked, and the lease/worker gauges drained to zero.
echo "ci: worker-fleet soak gate (3 workers, repeated SIGKILL)"
go build -o "$stats/dynamo-worker" ./cmd/dynamo-worker
wcache="$stats/fleet-cache"
"$stats/dynamo-serve" -addr 127.0.0.1:0 -cache-dir "$wcache" \
	-workers -lease-ttl 2s -ckpt-every 20000 \
	-quiet >"$stats/fleet-addr.txt" 2>/dev/null &
fleet=$!
waddr=""
for _ in $(seq 1 50); do
	waddr=$(sed -n 's!^http://!!p' "$stats/fleet-addr.txt" | head -1)
	[ -n "$waddr" ] && break
	sleep 0.2
done
[ -n "$waddr" ] || { echo "ci: fleet server never announced an address" >&2; exit 1; }
fleet_worker() {
	# $1: worker slot variable (w1..w3); $2: worker id.
	"$stats/dynamo-worker" -addr "$waddr" -id "$2" -slots 2 \
		-heartbeat 250ms -quiet >/dev/null 2>&1 &
	eval "$1=$!"
}
fleet_worker w1 fleet-a
fleet_worker w2 fleet-b
fleet_worker w3 fleet-c
"$stats/dynamo-experiments" -quick -jobs 4 -cache-dir "" \
	-remote "$waddr" -remote-deadline 180s \
	fig7 >"$stats/fig7-fleet.txt" 2>/dev/null &
fsweep=$!
kills=0
gen=0
while :; do
	sleep 0.3
	if ! kill -0 "$fsweep" 2>/dev/null; then
		break
	fi
	# SIGKILL one worker, rotating through the fleet, and start a fresh
	# replacement so capacity holds while the dead lease times out.
	victim=$(eval "echo \$w$((kills % 3 + 1))")
	kill -9 "$victim" 2>/dev/null || true
	wait "$victim" 2>/dev/null || true
	kills=$((kills + 1))
	gen=$((gen + 1))
	echo "ci: fleet kill $kills (worker pid $victim), starting replacement"
	fleet_worker "w$(((kills - 1) % 3 + 1))" "fleet-r$gen"
	if [ "$kills" -ge 6 ]; then
		echo "ci: fleet kill budget reached; letting the sweep finish"
		wait "$fsweep" || { echo "ci: fleet sweep failed" >&2; exit 1; }
		break
	fi
done
wait "$fsweep" 2>/dev/null || true
cmp "$stats/fig7-want.txt" "$stats/fig7-fleet.txt"
echo "ci: fleet sweep finished after $kills worker kill(s)"
leaked=$(find "$wcache" -name '*.failed.json' 2>/dev/null)
[ -z "$leaked" ] || { echo "ci: fleet soak leaked quarantine markers:" >&2; echo "$leaked" >&2; exit 1; }
wleases=-1
wworkers=-1
for _ in $(seq 1 60); do
	wmetrics=$(curl -fsS "http://$waddr/metrics") || { sleep 0.5; continue; }
	wleases=$(echo "$wmetrics" | sed -n 's/^dynamo_work_leases \([0-9-]*\)$/\1/p')
	wworkers=$(echo "$wmetrics" | sed -n 's/^dynamo_work_workers \([0-9-]*\)$/\1/p')
	wqueued=$(echo "$wmetrics" | sed -n 's/^dynamo_sweep_jobs_queued \([0-9]*\)$/\1/p')
	wrunning=$(echo "$wmetrics" | sed -n 's/^dynamo_sweep_jobs_running \([0-9]*\)$/\1/p')
	[ "$wleases" = 0 ] && [ "$wworkers" = 0 ] && [ "$wqueued" = 0 ] && [ "$wrunning" = 0 ] && break
	sleep 0.5
done
[ "$wleases" = 0 ] && [ "$wworkers" = 0 ] && [ "$wqueued" = 0 ] && [ "$wrunning" = 0 ] || {
	echo "ci: fleet gauges never drained (leases=$wleases workers=$wworkers queued=$wqueued running=$wrunning)" >&2
	exit 1
}
committed=$(echo "$wmetrics" | sed -n 's/^dynamo_work_commits_total{outcome="ok"} \([0-9]*\)$/\1/p')
[ -n "$committed" ] && [ "$committed" -gt 0 ] || {
	echo "ci: fleet server accepted no worker commits (got '$committed')" >&2
	exit 1
}
for wpid in "$w1" "$w2" "$w3"; do
	kill -TERM "$wpid" 2>/dev/null || true
done
for wpid in "$w1" "$w2" "$w3"; do
	wait "$wpid" 2>/dev/null || true
done
kill -TERM "$fleet" 2>/dev/null || true
wait "$fleet" 2>/dev/null || true
echo "ci: fleet soak survived $kills worker SIGKILL(s) with byte-identical tables ($committed commits)"

echo "ci: OK"
