#!/usr/bin/env bash
# End-to-end smoke of the memmodeld daemon: build it, start it, check
# /healthz, run two /v1/evaluate (the second renamed, which must echo
# its own name), one /v1/evaluate/topology, and one /v1/cluster/simulate,
# confirm the cache counted the one cached solve (the cluster run;
# evaluate and topology solve without the cache), then SIGTERM and
# assert the graceful drain exits cleanly (code 0).
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${MEMMODELD_SMOKE_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
BIN="$TMP/memmodeld"
LOG="$TMP/memmodeld.log"
PID=""

cleanup() {
  if [[ -n "$PID" ]] && kill -0 "$PID" 2>/dev/null; then
    kill -KILL "$PID" 2>/dev/null || true
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT

echo "== build memmodeld"
go build -o "$BIN" ./cmd/memmodeld

echo "== start memmodeld on $ADDR"
"$BIN" -addr "$ADDR" >"$LOG" 2>&1 &
PID=$!

echo "== wait for /healthz"
ok=""
for _ in $(seq 1 50); do
  if body="$(curl -fsS "$BASE/healthz" 2>/dev/null)"; then
    ok="$body"
    break
  fi
  kill -0 "$PID" 2>/dev/null || { echo "daemon died during startup:"; cat "$LOG"; exit 1; }
  sleep 0.1
done
[[ -n "$ok" ]] || { echo "daemon never became healthy:"; cat "$LOG"; exit 1; }
grep -q '"ok"' <<<"$ok" || { echo "unexpected /healthz body: $ok"; exit 1; }

echo "== POST /v1/evaluate"
eval_body="$(curl -fsS -X POST "$BASE/v1/evaluate" \
  -H 'Content-Type: application/json' \
  -d '{"params":{"class":"bigdata"},"platform":{}}')"
grep -q '"cpi"' <<<"$eval_body" || { echo "evaluate reply missing cpi: $eval_body"; exit 1; }

echo "== POST /v1/evaluate (same scenario, another platform name)"
renamed_body="$(curl -fsS -X POST "$BASE/v1/evaluate" \
  -H 'Content-Type: application/json' \
  -d '{"params":{"class":"bigdata"},"platform":{"name":"smoke-renamed"}}')"
grep -q '"platform": *"smoke-renamed"' <<<"$renamed_body" \
  || { echo "renamed evaluate reply does not echo its platform name: $renamed_body"; exit 1; }

echo "== POST /v1/evaluate/topology"
topo_body="$(curl -fsS -X POST "$BASE/v1/evaluate/topology" \
  -H 'Content-Type: application/json' \
  -d '{"params":{"class":"bigdata"},"topology":{"tiers":[
        {"name":"near","share":0.8,"compulsory_ns":75,"peak_gbps":42},
        {"name":"far","share":0.2,"compulsory_ns":300,"peak_gbps":10,"efficiency":0.8}]}}')"
grep -q '"cpi"' <<<"$topo_body" || { echo "topology reply missing cpi: $topo_body"; exit 1; }
grep -q '"policy": *"fractions"' <<<"$topo_body" \
  || { echo "topology reply missing policy: $topo_body"; exit 1; }

echo "== POST /v1/cluster/simulate (reference fleet, one policy)"
cluster_body="$(curl -fsS -X POST "$BASE/v1/cluster/simulate" \
  -H 'Content-Type: application/json' \
  -d '{"duration_s":1,"policies":["weighted"]}')"
grep -q '"event_hash"' <<<"$cluster_body" \
  || { echo "cluster reply missing event_hash: $cluster_body"; exit 1; }
grep -q '"policy": *"weighted"' <<<"$cluster_body" \
  || { echo "cluster reply missing policy: $cluster_body"; exit 1; }

echo "== check /metrics counted the one cached solve (the cluster run)"
metrics="$(curl -fsS "$BASE/metrics")"
grep -q '^memmodeld_cache_misses_total 1$' <<<"$metrics" \
  || { echo "metrics missing the cluster cold solve:"; grep memmodeld_cache <<<"$metrics" || true; exit 1; }

echo "== SIGTERM and wait for graceful drain"
kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
PID=""
if [[ "$rc" -ne 0 ]]; then
  echo "daemon exited with $rc, want 0:"
  cat "$LOG"
  exit 1
fi
grep -q 'final stats' "$LOG" || { echo "drain did not flush stats:"; cat "$LOG"; exit 1; }

echo "smoke: OK"
