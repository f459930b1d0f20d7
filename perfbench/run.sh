#!/usr/bin/env bash
# Builds cmd/repro, cmd/memmodeld and the benchmark program from source,
# then runs it with every argument passed through:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare sets/parent sets/change
#
# Run it from the root of a checkout. Everything it builds, caches or
# writes stays under .bench_build/ in that checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/repro || ! -d cmd/memmodeld || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/repro, cmd/memmodeld and perfbench/ must exist)" >&2
	exit 2
fi

root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"

# Keep the toolchain offline and inside the checkout: no toolchain or
# module downloads, no VCS stamping, no user-level go env, and caches and
# temporary files under .bench_build.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off GOENV=off
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp PPROF_TMPDIR=$build/tmp HOME=$build

go build -o "$build/bin/repro" ./cmd/repro
go build -o "$build/bin/memmodeld" ./cmd/memmodeld
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" "$@"
