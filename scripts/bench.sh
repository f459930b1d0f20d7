#!/usr/bin/env bash
# Benchmark harness: runs the artifact benchmark suite (bench_test.go)
# with -benchmem and emits BENCH_repro.json recording op time and
# allocations for every benchmark. To re-baseline after a perf change,
# rerun this script and commit the regenerated BENCH_repro.json.
# End-to-end performance comparisons belong to perfbench/, not here.
#
# Usage: scripts/bench.sh [smoke|full]
#   smoke  one iteration per benchmark (CI)
#   full   three iterations per benchmark (default)
#
# Env:
#   BENCH_OUT       output path (default BENCH_repro.json)
#   BENCH_CPU       -cpu value (default 8)
#   REPRO_PROFILE   when set, write <REPRO_PROFILE>_cpu.prof and
#                   <REPRO_PROFILE>_mem.prof from the suite pass
#
# The smoke mode also gates allocation regressions: the steady-state
# hot paths (CacheAccess, CacheAccessStream, MemsysAccess) must stay at
# zero allocs/op and MachineSimulation and ClusterSimulate under fixed
# ceilings, so an accidental allocation on the measurement path or in
# the fleet simulator fails CI instead of landing silently.
#
# Output: BENCH_repro.json (override with BENCH_OUT). No jq dependency:
# the JSON is assembled from `go test -bench` output with awk/printf.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-full}"
OUT="${BENCH_OUT:-BENCH_repro.json}"
CPU="${BENCH_CPU:-8}"
case "$MODE" in
smoke)
	SUITE_TIME=1x
	;;
full)
	SUITE_TIME=3x
	;;
*)
	echo "usage: scripts/bench.sh [smoke|full]" >&2
	exit 2
	;;
esac

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# parse turns `go test -bench` output into TSV:
# name<TAB>iterations<TAB>ns/op<TAB>B/op<TAB>allocs/op
parse() {
	awk '$1 ~ /^Benchmark/ {
		name = $1
		sub(/^Benchmark/, "", name)
		sub(/-[0-9]+$/, "", name)
		ns = ""; bytes = ""; allocs = ""
		for (i = 3; i < NF; i++) {
			if ($(i + 1) == "ns/op") ns = $i
			else if ($(i + 1) == "B/op") bytes = $i
			else if ($(i + 1) == "allocs/op") allocs = $i
		}
		print name "\t" $2 "\t" ns "\t" bytes "\t" allocs
	}' "$1"
}

PROFILE_ARGS=()
if [ -n "${REPRO_PROFILE:-}" ]; then
	PROFILE_ARGS=(-cpuprofile "${REPRO_PROFILE}_cpu.prof" -memprofile "${REPRO_PROFILE}_mem.prof")
	echo "== profiling suite pass to ${REPRO_PROFILE}_{cpu,mem}.prof"
fi

echo "== suite: go test -bench . -benchmem -benchtime $SUITE_TIME -cpu $CPU"
go test -run '^$' -bench . -benchmem -benchtime "$SUITE_TIME" -cpu "$CPU" -timeout 45m "${PROFILE_ARGS[@]}" . | tee "$TMP/suite.txt"
parse "$TMP/suite.txt" >"$TMP/suite.tsv"

# check_allocs fails the run when a benchmark's allocs/op exceeds its
# ceiling — the allocation-regression gate for the zero-alloc
# measurement path. Ceilings live here, next to the harness; raise one
# only with a justification in the commit that does it. The tier-1
# TestAllocs* tests in alloc_test.go apply the CacheAccess,
# CacheAccessStream, MemsysAccess and MachineSimulation ceilings too;
# keep the two in step.
check_allocs() {
	local name="$1" ceiling="$2" got
	got="$(awk -F'\t' -v n="$name" '$1 == n { print $5; exit }' "$TMP/suite.tsv")"
	if [ -z "$got" ]; then
		echo "bench: alloc gate: benchmark $name missing from suite output" >&2
		exit 1
	fi
	if [ "$got" -gt "$ceiling" ]; then
		echo "bench: alloc gate: $name allocs/op $got > ceiling $ceiling" >&2
		exit 1
	fi
	echo "alloc gate ok: $name $got <= $ceiling"
}

# MachineSimulation measures ~103 allocs/op after the zero-alloc PR
# (per-Reset workload generators dominate; runtime thread allocations
# add ~50 at -cpu 8 on small boxes); 220 is ~1.5x headroom over the
# worst observed.
# ClusterSimulate measures 977-983 allocs/op with the 4-ary event heap,
# presized sample slices and per-host canonicalization (2972 before
# them; the pricing pass's canonical strings and solves dominate the
# rest); 1500 is ~1.5x headroom.
check_allocs CacheAccess 0
check_allocs CacheAccessStream 0
check_allocs MemsysAccess 0
check_allocs MachineSimulation 220
check_allocs ClusterSimulate 1500

{
	printf '{\n'
	printf '  "mode": "%s",\n' "$MODE"
	printf '  "go": "%s",\n' "$(go version)"
	printf '  "cpu": %s,\n' "$CPU"
	printf '  "suite_benchtime": "%s",\n' "$SUITE_TIME"
	printf '  "benchmarks": [\n'
	first=1
	while IFS=$'\t' read -r name iters ns bytes allocs; do
		[ "$first" -eq 1 ] || printf ',\n'
		first=0
		printf '    {"name": "%s", "iterations": %s, "ns_per_op": %s, "bytes_per_op": %s, "allocs_per_op": %s}' \
			"$name" "$iters" "${ns:-null}" "${bytes:-null}" "${allocs:-null}"
	done <"$TMP/suite.tsv"
	printf '\n  ]\n'
	printf '}\n'
} >"$OUT"

echo "bench: wrote $OUT"
