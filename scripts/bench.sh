#!/bin/sh
# bench.sh — run the hot-path benchmarks and append a dated entry to
# BENCH_results.json (via scripts/benchmerge), preserving the recorded
# pre-rewrite baseline and every previous entry so the performance
# trajectory accumulates PR over PR.
#
# Usage: scripts/bench.sh [label]
set -eu

cd "$(dirname "$0")/.."
label="${1:-dev}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# Event-core benches: the simulator's fundamental speed.
go test -run '^$' -bench 'BenchmarkEngineScheduleAndFire|BenchmarkEngineChainedTimers|BenchmarkEngineManyPending' \
    -benchmem ./internal/sim/ >>"$tmp" 2>&1
go test -run '^$' -bench 'BenchmarkSimulatedSecondOneHog|BenchmarkSimulatedSecondPipeline|BenchmarkContextSwitchStorm|BenchmarkTimerHeavySleepers' \
    -benchmem ./internal/kernel/ >>"$tmp" 2>&1

# Scheduler-core scaling benches: dispatch cost versus thread count and
# the allocation-free controller epoch (the zero-value control plane: one
# periodic shard sweeping every job).
go test -run '^$' -bench 'BenchmarkStormDispatch' -benchtime 30x -benchmem . >>"$tmp" 2>&1
go test -run '^$' -bench 'BenchmarkControllerStep/shards=1/' -benchtime 200x -benchmem ./internal/ctlplane/ >>"$tmp" 2>&1

# Workload-breadth bench: admission-churn throughput (Spawn/Kill/
# Renegotiate near capacity with the invariant checker live).
go test -run '^$' -bench 'BenchmarkChurnThroughput' -benchtime 10x -benchmem . >>"$tmp" 2>&1

# SMP storm bench: fixed backlog drained on 1/2/4/8 CPUs — wall time must
# fall as CPUs grow (the SMP kernel's throughput claim).
go test -run '^$' -bench 'BenchmarkStormSMP' -benchtime 3x -benchmem . >>"$tmp" 2>&1

# Overload governor bench: the same hog storm with the governor off and
# enabled-but-idle. The dispatches metric (storm throughput on the
# simulated machine) must be identical; the ns/op delta is the host-side
# SLO-tap/governor instrumentation cost.
go test -run '^$' -bench 'BenchmarkOverloadGovernor' -benchtime 10x -benchmem . >>"$tmp" 2>&1

# Sharded control-plane benches (pr8-ctlplane): one full control epoch at
# 10k and 100k jobs, periodic vs event mode — the event plane's per-job
# cost must stay sublinear-ish (n=100k < 2× the n=10k per-job cost). The
# cpus=8 variants run the rrbench plane machine (8 CPUs, 8 shards, jobs
# homed by CPU through the cpu→shard table), the path the 1-CPU rig's
# thread-ID hash never takes. The 1M-job soak logs admission and per-epoch
# wall time into the test output.
go test -run '^$' -bench 'BenchmarkControllerStep/(mode|cpus)=' -benchtime 20x -benchmem ./internal/ctlplane/ >>"$tmp" 2>&1
go test -run 'TestSoak1MAdmission' -v ./internal/ctlplane/ >>"$tmp" 2>&1

# Live-service SLO bench (pr9-slo-family): a simulated second of the slo
# scenario family — open-loop session arrivals through three-stage
# pipelines under rbs + the event-driven governed control plane — at 10k
# and 100k drawn sessions. ms_per_epoch is the host cost per 10 ms control
# epoch; the 100k point must hold under ~2× the pr8 control-plane cost.
go test -run '^$' -bench 'BenchmarkSLOSessions' -benchtime 3x -benchmem . >>"$tmp" 2>&1

go run ./scripts/benchmerge -file BENCH_results.json -date "$(date -u +%F)" -label "$label" <"$tmp"
