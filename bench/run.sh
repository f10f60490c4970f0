#!/usr/bin/env bash
# run.sh — build and run the benchmark from a checkout of the repository.
# Everything the build and the run write stays inside the checkout: the
# Go build cache and the binaries under .bench_build/, logs and trace
# files under bench/out/.
#
#   bash bench/run.sh --workload read_miss --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"

export GOCACHE="$build/gocache"
export XDG_CONFIG_HOME="$build/config" # go's env file and telemetry counters
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

# The benchmark is a module of its own (bench/go.mod) that replaces the
# dhsketch module with the checkout around it; without that checkout
# this build fails and nothing runs.
(cd "$root/bench" && go build -o "$build/bin/bench" .)

cd "$root"
exec "$build/bin/bench" -root "$root" "$@"
