#!/usr/bin/env bash
# Full verification: gofmt, vet, build, the tier-1 test suite, the benchmark
# module's own vet and tests, and the race detector over the
# concurrency-bearing packages (the simulator's event
# loop under the parallel fit grids, the engine scheduler, the
# experiment suite's shared once-cells, the sharded LRU behind the
# scenario cache, the fleet simulator, the memmodeld service layer, and
# the resilient client SDK).
#
# The race pass shrinks the golden-manifest drift test's scope via the
# `race` build tag (see internal/experiments/race_on_test.go) — the
# detector's slowdown makes two full -quick suite runs impractical.
set -euo pipefail
cd "$(dirname "$0")/.."

# gofmt -l lists unformatted files and exits 0 either way, so the gate
# fails on any output. It covers perfbench/ too, a separate module under
# the root directory.
echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: unformatted files:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test (tier 1)"
go test ./...

# perfbench/ is a separate module (replace repro => ../), outside the
# root ./... pattern, so an API change that breaks the benchmark only
# shows up here.
echo "== perfbench: go vet + go test"
(cd perfbench && go vet ./... && go test ./...)

echo "== go test -race (sim + cluster + engine + experiments + lru + serve + client + workgen)"
go test -race -timeout 30m ./internal/sim/ ./internal/cluster/ ./internal/engine/ ./internal/experiments/ ./internal/lru/ ./internal/serve/ ./client/ ./internal/workgen/

echo "verify: OK"
