#!/usr/bin/env bash
# Regenerates the Figure 5-8 outputs, sweeps of generated rbs scenarios,
# the SMP storm, the observer event stream, every rrexp section and the
# rrtop dashboards, and byte-compares them against the committed goldens
# in testdata/goldens/. Any drift in the dispatch schedule or controller
# arithmetic fails the build.
#
# To re-bless after an intentional change: scripts/goldens.sh -update
set -euo pipefail
cd "$(dirname "$0")/.."

update=0
[ "${1:-}" = "-update" ] && update=1

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/rrexp" ./cmd/rrexp
go build -o "$tmp/rrtop" ./cmd/rrtop

status=0

# CPUs=1 equivalence: the SMP kernel pinned to one CPU must reproduce the
# committed pre-SMP dispatch trace byte-for-byte.
if go test -run 'TestRBSDispatchTraceGolden|TestSMPOneCPUGoldenEquivalence' -count=1 . >/dev/null; then
  echo "rbs_dispatch (CPUs=1): byte-identical"
else
  echo "rbs_dispatch (CPUs=1): diverged" >&2
  status=1
fi

# The controller-to-observer event stream of one faulted, overloaded run:
# every non-dispatch Observer callback, one line each.
if [ "$update" = 1 ]; then
  go test -run 'TestObserverEventGolden' -count=1 -update . >/dev/null
  echo "observer_events: updated"
elif go test -run 'TestObserverEventGolden' -count=1 . >/dev/null; then
  echo "observer_events: byte-identical"
else
  echo "observer_events: diverged (go test -run TestObserverEventGolden . for the first differing line)" >&2
  status=1
fi

# check NAME compares $tmp/NAME.out against testdata/goldens/NAME.golden
# (or, with -update, replaces the golden).
check() {
  local golden="testdata/goldens/$1.golden"
  if [ "$update" = 1 ]; then
    cp "$tmp/$1.out" "$golden"
    echo "$1: updated"
  elif cmp -s "$golden" "$tmp/$1.out"; then
    echo "$1: byte-identical"
  else
    echo "$1: output diverged from $golden:" >&2
    diff "$golden" "$tmp/$1.out" >&2 || true
    status=1
  fi
}

for fig in 5 6 7 8; do
  "$tmp/rrexp" -fig "$fig" > "$tmp/fig$fig.out"
  check "fig$fig"
done

# The control loop on generated workloads under rbs: the default plane (one
# periodic shard) on one CPU and on four, and a lone event-driven shard.
# The figures run one CPU and few jobs; these runs add SMP placement of the
# controller thread, job churn, and the event plane's modeled cost.
{
  "$tmp/rrexp" -gen -policy rbs -seeds 5
  "$tmp/rrexp" -gen -policy rbs -cpus 4 -seeds 4
  "$tmp/rrexp" -gen -policy rbs -controller event -seeds 5
} > "$tmp/gen_rbs.out" || true
check gen_rbs

# SMP dispatch: the run-to-completion storm on 1/2/4/8 CPUs. Its migration
# counts pin the ready-array order that work-pull stealing scans.
"$tmp/rrexp" -storm -quick > "$tmp/storm_smp.out"
check storm_smp

# Multi-shard periodic planes: three shards on one CPU and four on four.
{
  "$tmp/rrexp" -gen -policy rbs -shards 3 -seeds 5
  "$tmp/rrexp" -gen -policy rbs -cpus 4 -shards 4 -seeds 5
} > "$tmp/gen_shards.out" || true
check gen_shards

# Every section of rrexp -all at quarter length: the only golden that runs
# pathfinder, livelock, variance, interactive, freq, the ablations, openloop
# and churn, which wire their kernels and controllers by hand, and whose
# churn sweep tears exits down through System under all five policies.
"$tmp/rrexp" -all -quick > "$tmp/all_quick.out"
check all_quick

# rrtop, the one non-test reader of the SLO report's wake→dispatch total:
# the overload demo on one CPU and on four under a two-shard event plane,
# then the fault-ladder demo.
{
  "$tmp/rrtop" -overload
  "$tmp/rrtop" -overload -cpus 4 -controller event -shards 2
  "$tmp/rrtop" -faults
} > "$tmp/rrtop.out"
check rrtop
exit $status
