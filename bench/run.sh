#!/usr/bin/env bash
# Builds rrbench from this checkout's sources and runs it with the given
# flags, from the repository root:
#
#   bash bench/run.sh -workload plane -seed 1 -seconds 10 -trace 0
#   bash bench/run.sh -compare base.json cand.json
#
# Build outputs, the Go build cache and the traced run's profiles stay in
# .bench_build/ at the root, so the run reads and writes only its checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
  echo "rrbench: run from the repository root (go.mod and bench/go.mod not found)" >&2
  exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd bench && go build -o "$out/rrbench" ./rrbench)
exec "$out/rrbench" "$@"
