#!/bin/sh
# ci.sh — the full gate, cheapest checks first so the common failures
# surface in seconds, not after the race-enabled test pass.
#
# The race-enabled test run covers the parallel sweep pool (cells fan out
# across goroutines) and the memoized benchmark caches; the bench pass is
# a 1-iteration smoke of every figure reproduction.
set -eux

# Formatting and static analysis: gofmt must be clean, vet runs under both
# tag sets (the debug-only assert files are code too), and simlint
# enforces the repo's determinism and scheduling contracts (R1–R9; see
# ARCHITECTURE.md §6) before anything slower runs — under both tag sets
# too, since the interprocedural rules (R7–R9) cover the protocol and
# journal code that the debug-only files exercise. The -json run gates
# that the machine-readable output stays parseable (the CLI re-decodes
# its own output before printing) and leaves the findings inventory
# behind as a build artifact for run-to-run diffing.
test -z "$(gofmt -l .)"
go vet ./...
go vet -tags debug ./...
go build ./...
# perfbench/ (the repo benchmark) is its own module, so the root build
# above never compiles it; build and vet it here so a change that breaks
# an API it imports fails CI, not the next benchmark run. (-o /dev/null:
# perfbench is one main package, so a plain build would drop its binary
# into the source tree.)
(cd perfbench && go build -o /dev/null ./... && go vet ./...)
go run ./cmd/simlint ./...
go run ./cmd/simlint -tags debug ./...
go run ./cmd/simlint -json ./... > /tmp/ci_simlint.json

# The lint package's own suite (golden rule fixtures, interprocedural
# summaries, repo self-check, JSON round-trip) under -race: the engine
# type-checks and runs rules across GOMAXPROCS workers.
go test -race -count=1 ./internal/lint

go test -race ./...
go test -run=NONE -bench=Fig -benchtime=1x .

# Scheduler-core gate: the reference and incremental cores must stay
# byte-identical. The differential sweep tests rerun under -race (cells fan
# out across goroutines) with full invariant auditing, and the bench pass
# drives one op per benchmark cell (FCFS steady and churn, WFP planning
# churn, every queue depth) on both cores.
go test -race -run 'SchedCoreDifferential' ./internal/experiments ./internal/coupled
go test -run=NONE -bench=Iterate -benchtime=1x ./internal/resmgr

# Protocol-resilience gate: the peer-link breaker/backoff machinery, the
# proto client/server/fault-injector, and the live chaos harness are the
# repo's most concurrency-heavy code (links are hammered from scheduler,
# probe, and status threads at once). -count=2 reruns them uncached so
# goroutine-interleaving flakes can't hide behind a cached pass.
go test -race -count=2 ./internal/proto ./internal/peerlink ./internal/live

# Crash-recovery gate: the acceptance test SIGKILLs a live daemon
# mid-run, restarts it on the same journal, and verifies co-starts from
# the event logs; the drain test checks the SIGTERM peer notification.
# Real processes and real sockets make these the most timing-sensitive
# tests in the repo, so -count=2 under -race reruns them uncached.
go test -race -count=2 -run 'Crash|Drain|Flag' ./cmd/coschedd

# Journal fuzz smoke: ten seconds of coverage-guided torn-tail inputs
# against the WAL decoder, seeded from testdata/fuzz. The decoder must
# never panic and never return a record that fails its checksum or
# sequence check, whatever bytes a crash left behind. The replay bound
# then runs once without -race (the race detector's slowdown is not the
# daemon's): folding the 10k-entry lifecycle history must stay under
# 100 ms.
go test -run '^$' -fuzz 'FuzzDecodeEntries' -fuzztime 10s ./internal/journal
go test -run '^$' -bench 'LifecycleReplay10k' -benchtime=1x ./internal/journal

# Debug-build hardening: the backfill sortedness asserts, the resource
# manager's order asserts (every planning order equals a cold sort; the
# indexed queue's slot positions match the queue) and the invariant
# package's fail-fast deadlock monitor only compile under -tags debug; run
# their suites together with the asserts live.
go test -tags debug ./internal/invariant ./internal/backfill ./internal/resmgr

# Distributed-sweep gate: the coordinator/worker protocol (heartbeats,
# failure detection, deterministic re-dispatch) reruns under -race, the
# SIGKILL acceptance test kills a real worker process mid-sweep and
# byte-compares the merged tables against serial, and the differential
# runs a tiny load sweep across two -distworker processes spawned by the
# CLI's own distributor and fails on any table mismatch against the
# in-process run. The streaming-ingestion differentials
# (SubmitTraceStream vs SubmitTrace, AnalyzeStream vs Analyze, traceinfo
# render-twice) ride in the main -race pass above.
go test -race -count=2 ./internal/distsweep
go test -race -run 'WorkerSIGKILLMidSweep|DistWorkersMatchInProcess' ./cmd/experiments

# Memory-architecture gate, run without -race so RSS is the program's,
# not the race detector's: a 100k-job HH cell through the
# snapshot/arena/free-list path must leave no job stuck and keep peak RSS
# under 2 GiB, and a 50x SWF month streamed in a fresh child process must
# complete every job at no more than 1.35x the peak RSS of a 5x month.
# Then the steady-state zero-alloc assertions (engine event churn, the
# EASY planner and the WFP planning iteration must report 0 allocs/op) and
# one uncached run of the scheduler throughput benchmarks. Throughput itself is NOT gated here:
# perfbench/ (perfbench/README.md) measures it. -pprof leaves cpu/alloc
# profiles of a small load sweep behind as build artifacts for regression
# hunts.
go test -count=1 -run 'MegaCellHH|StreamingRSSFlat' ./cmd/experiments
go run ./cmd/experiments -pprof /tmp/ci_pprof -exp load -factor 0.05 -reps 1
go test -run 'ZeroAlloc|WithoutAllocating' -count=1 \
    . ./internal/sim ./internal/arena ./internal/backfill ./internal/workload \
    ./internal/resmgr
go test -run=NONE -bench 'EngineEventThroughput' -benchtime=100x -count=1 .

# Chaos-campaign gate: 25 deterministic fault-injection campaigns from a
# fixed seed, under -race, across all three seams (journal VFS faults,
# asymmetric peer-link faults, coordinator SIGKILL/resume). Every campaign
# must pass its invariant gates — no stuck jobs, co-start accounting
# consistent with dropped calls, every surviving journal replayable, sweep
# tables byte-identical to the serial oracle — and any failure prints a
# one-line seeded repro. The -chaosinject leg corrupts one resumed table
# cell on purpose and must FAIL, proving the byte-identity gate can trip.
go run -race ./cmd/experiments -chaoscampaign 25 -chaosseed 1
! go run ./cmd/experiments -chaoscampaign 1 -chaosseed 1 -chaosinject
