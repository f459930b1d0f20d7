#!/usr/bin/env bash
# End-to-end calibration smoke: build memmodeld and memmodelctl, boot
# the daemon, dry-run the reference workload spec server-side
# (memmodelctl validate), then drive a short seeded load-generation run
# against it (memmodelctl loadgen) and assert the calibration report
# parses, scores finite MAPEs, names the same trace (hash and arrival
# count) as a validate dry run of the same spec, and counts the whole
# run's offered rate.
# The accuracy gates themselves live in the loadgen-calibration
# experiment's test — a shared CI runner is too noisy to gate a live
# network run on a percentage.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${MEMMODELD_CAL_ADDR:-127.0.0.1:18082}"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
DAEMON="$TMP/memmodeld"
CTL="$TMP/memmodelctl"
LOG="$TMP/memmodeld.log"
REPORT="$TMP/report.json"
VALIDATE="$TMP/validate.json"
PID=""

cleanup() {
  if [[ -n "$PID" ]] && kill -0 "$PID" 2>/dev/null; then
    kill -KILL "$PID" 2>/dev/null || true
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT

echo "== build memmodeld + memmodelctl"
go build -o "$DAEMON" ./cmd/memmodeld
go build -o "$CTL" ./cmd/memmodelctl

echo "== start memmodeld on $ADDR"
"$DAEMON" -addr "$ADDR" >"$LOG" 2>&1 &
PID=$!

echo "== wait for health"
up=""
for _ in $(seq 1 50); do
  if "$CTL" health -server "$BASE" -timeout 2s >/dev/null 2>&1; then
    up=yes
    break
  fi
  kill -0 "$PID" 2>/dev/null || { echo "daemon died during startup:"; cat "$LOG"; exit 1; }
  sleep 0.1
done
[[ -n "$up" ]] || { echo "daemon never became healthy:"; cat "$LOG"; exit 1; }

echo "== memmodelctl validate (server-side dry run of the reference spec)"
"$CTL" validate -server "$BASE" -timeout 15s -rps 100 -duration 2 >"$VALIDATE"
python3 - "$VALIDATE" <<'EOF'
import json, sys
v = json.load(open(sys.argv[1]))
assert len(v["trace_hash"]) == 16, v["trace_hash"]
assert v["arrivals"] > 0
assert v["clients"][0]["name"] == "total"
assert len(v["scenarios"]) == 6, len(v["scenarios"])
EOF

echo "== memmodelctl loadgen (5s seeded run: replay, calibrate on one half, score the other)"
"$CTL" loadgen -server "$BASE" -timeout 60s -seed 42 -rps 100 -duration 5 -warmup 0.5 >"$REPORT"

echo "== check the calibration report"
python3 - "$REPORT" <<'EOF'
import json, math, sys
r = json.load(open(sys.argv[1]))
assert r["name"] == "workload", r["name"]
assert r["seed"] == 42, r["seed"]
assert len(r["trace_hash"]) == 16, r["trace_hash"]
assert r["arrivals"] > 300, r["arrivals"]
assert r["observed"][0]["name"] == "total"
assert r["observed"][0]["shed_rate"] == 0, r["observed"][0]
assert len(r["pairs"]) == 16, len(r["pairs"])
for key in ("mape_throughput", "mape_mean_latency", "mape_overall"):
    assert math.isfinite(r[key]), (key, r[key])
# Throughput is predicted from the realized trace; on a shed-free run
# it must match the observation almost exactly even on a noisy runner.
assert r["mape_throughput"] < 5, r["mape_throughput"]
EOF

echo "== same seed, same trace (determinism across processes)"
# loadgen ran 5s/seed 42; validate dry-runs the same spec: the server
# must derive the identical schedule the client replayed, and the
# report must count every arrival of it and the whole run's offered
# rate (for a fixed seed this is a fixed number, near -rps).
"$CTL" validate -server "$BASE" -timeout 15s -rps 100 -duration 5 -seed 42 >"$VALIDATE.2"
python3 - "$REPORT" "$VALIDATE.2" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
v = json.load(open(sys.argv[2]))
assert r["trace_hash"] == v["trace_hash"], ("trace hash", r["trace_hash"], v["trace_hash"])
assert r["arrivals"] == v["arrivals"], ("arrivals", r["arrivals"], v["arrivals"])
for side in ("observed", "predicted"):
    rps = r[side][0]["offered_rps"]
    assert abs(rps - 100) <= 10, (side, "offered_rps", rps)
EOF

echo "== shutdown"
kill -TERM "$PID"
wait "$PID" || { echo "daemon exited non-zero:"; cat "$LOG"; exit 1; }
PID=""

echo "calibrate smoke: OK"
