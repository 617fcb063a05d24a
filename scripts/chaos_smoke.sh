#!/usr/bin/env bash
# chaos_smoke.sh — end-to-end chaos drill of the fault-tolerant
# coordinator, runnable locally and as the CI chaos job. It stands up
# the replicated deployment shape on loopback:
#
#   d3l index build -shards 2          →  shard-000.d3l, shard-001.d3l
#   two `d3l serve` replicas PER SHARD (independent processes)
#   one `d3l faultproxy` in front of each replica
#   one `d3l coordinator` with a two-replica group per shard
#   one monolith `d3l serve` over the same lake — the reference
#
# and then walks the group through real failures while gating on the
# subsystem's contracts:
#
#   1. Exactness under faults: /v1/query and /v1/batch
#      answers from the coordinator stay byte-identical to the
#      monolith's before faults, during an injected 5xx burst on the
#      preferred replica of every shard, and after one replica per
#      shard is killed outright.
#   2. Zero client-visible 5xx: a gated loadgen pass runs against the
#      coordinator while the kills land mid-run; any 5xx fails the
#      drill, and the required metric families must appear (the gate
#      is fail-closed — a missing family is a failure, not a skip).
#   3. Failover really happened: the coordinator's /metrics must show
#      a nonzero d3l_replica_failovers_total after the drill; a run
#      where the faults never forced a failover proves nothing and
#      fails.
#
# The loadgen mix is read-only for the same reason shard_smoke.sh's
# is: mutations would change rankings mid-run and break the
# byte-identity reference.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/d3l" ./cmd/d3l

"$WORK/d3l" generate -kind synthetic -out "$WORK/lake" -tables 20 -seed 1307
"$WORK/d3l" index build -dir "$WORK/lake" -out "$WORK/mono.d3l"
"$WORK/d3l" index build -dir "$WORK/lake" -shards 2 -out "$WORK/shards"

start() { # start <addr> <args...>: launch a process and wait for health
  local addr="$1"; shift
  "$WORK/d3l" "$@" -addr "$addr" &
  PIDS+=($!)
  START_PID=$!
  for _ in $(seq 1 50); do
    if curl -sf "http://$addr/v1/healthz" > /dev/null; then return 0; fi
    sleep 0.2
  done
  echo "process on $addr never became healthy" >&2
  return 1
}

startproxy() { # startproxy <addr> <target>: faultproxy with no faults armed
  local addr="$1" target="$2"
  "$WORK/d3l" faultproxy -listen "$addr" -target "$target" -seed 1307 &
  PIDS+=($!)
  for _ in $(seq 1 50); do
    if curl -sf "http://$addr/_fault/rules" > /dev/null; then return 0; fi
    sleep 0.2
  done
  echo "faultproxy on $addr never came up" >&2
  return 1
}

MONO=127.0.0.1:8290
R00=127.0.0.1:8291   # shard 0, replica 0 (the preferred replica)
R01=127.0.0.1:8292   # shard 0, replica 1
R10=127.0.0.1:8293   # shard 1, replica 0 (the preferred replica)
R11=127.0.0.1:8294   # shard 1, replica 1
FP00=127.0.0.1:8295
FP01=127.0.0.1:8296
FP10=127.0.0.1:8297
FP11=127.0.0.1:8298
COORD=127.0.0.1:8299

start "$MONO" serve -index "$WORK/mono.d3l"
start "$R00"  serve -index "$WORK/shards/shard-000.d3l"; R00_PID=$START_PID
start "$R01"  serve -index "$WORK/shards/shard-000.d3l"
start "$R10"  serve -index "$WORK/shards/shard-001.d3l"; R10_PID=$START_PID
start "$R11"  serve -index "$WORK/shards/shard-001.d3l"

startproxy "$FP00" "http://$R00"
startproxy "$FP01" "http://$R01"
startproxy "$FP10" "http://$R10"
startproxy "$FP11" "http://$R11"

start "$COORD" coordinator \
  -shard "http://$FP00,http://$FP01" \
  -shard "http://$FP10,http://$FP11" \
  -shard-timeout 5s -retries 2 -retry-delay 5ms -hedge-after 500ms \
  -probe-interval 200ms -breaker-backoff 100ms -cache -1

# A replicated coordinator with every group healthy must be ready.
curl -sf "http://$COORD/v1/readyz" > /dev/null || {
  echo "readyz != 200 on a healthy replicated coordinator" >&2; exit 1; }

# --- request bodies from real lake tables -----------------------------
python3 - "$WORK/lake" "$WORK/bodies" <<'EOF'
import csv, json, os, sys
lake, out = sys.argv[1], sys.argv[2]
os.makedirs(out, exist_ok=True)
names = sorted(n for n in os.listdir(lake) if n.endswith(".csv"))
for i, name in enumerate(names[::7][:3]):
    with open(os.path.join(lake, name), newline="") as f:
        rows = list(csv.reader(f))
    table = {"name": "smoke_target", "columns": rows[0], "rows": rows[1:9]}
    with open(os.path.join(out, f"t{i}.json"), "w") as f:
        json.dump({"table": table, "k": 5}, f)
    with open(os.path.join(out, f"b{i}.json"), "w") as f:
        json.dump({"tables": [table], "k": 5}, f)
EOF

check_exact() { # check_exact <phase>: coordinator answers == monolith answers
  local phase="$1"
  for body in "$WORK"/bodies/t*.json; do
    curl -sf "http://$MONO/v1/query"  -d @"$body" > "$WORK/mono.out"
    curl -sf "http://$COORD/v1/query" -d @"$body" > "$WORK/coord.out"
    if ! cmp -s "$WORK/mono.out" "$WORK/coord.out"; then
      echo "BYTE DIVERGENCE ($phase): coordinator /v1/query != monolith for $body" >&2
      diff <(python3 -m json.tool "$WORK/mono.out") <(python3 -m json.tool "$WORK/coord.out") >&2 || true
      exit 1
    fi
  done
  for body in "$WORK"/bodies/b*.json; do
    curl -sf "http://$MONO/v1/batch"  -d @"$body" > "$WORK/mono.out"
    curl -sf "http://$COORD/v1/batch" -d @"$body" > "$WORK/coord.out"
    cmp -s "$WORK/mono.out" "$WORK/coord.out" || {
      echo "BYTE DIVERGENCE ($phase): coordinator /v1/batch != monolith for $body" >&2; exit 1; }
  done
  echo "byte-identity ($phase): coordinator answers match the monolith"
}

check_exact "healthy"

# --- Phase 1: injected 5xx burst on the preferred replicas ------------
# Half of every preferred replica's responses become injected 503s;
# the coordinator must absorb every one via retry/failover.
curl -sf -X POST "http://$FP00/_fault/rules" -d '{"errorProb":0.5}' > /dev/null
curl -sf -X POST "http://$FP10/_fault/rules" -d '{"errorProb":0.5}' > /dev/null
check_exact "5xx-burst"
curl -sf -X POST "http://$FP00/_fault/rules" -d '{}' > /dev/null
curl -sf -X POST "http://$FP10/_fault/rules" -d '{}' > /dev/null

# --- Phase 2: kill one replica per shard mid-loadgen ------------------
# The coordinator takes the whole gated run; the kills land a few
# seconds in. Any 5xx — injected, refused connection, or otherwise —
# fails the gate, and the replica metric families must be present.
"$WORK/d3l" loadgen \
  -url "http://$COORD" \
  -dir "$WORK/lake" \
  -workers 4 -warmup 2s -duration "${DURATION:-12s}" -seed 42 \
  -mix query=8,batch=1 \
  -fail-on-5xx -require-metrics -max-p99 5s \
  -out "${OUT:-$WORK/chaos-slo.json}" &
LG_PID=$!
PIDS+=($LG_PID)

sleep 5
kill "$R00_PID" "$R10_PID"
echo "killed shard 0 replica 0 ($R00) and shard 1 replica 0 ($R10) mid-loadgen"

wait "$LG_PID" || { echo "gated loadgen failed during the kill drill" >&2; exit 1; }

check_exact "post-kill"

# --- Phase 3: the failovers must be real ------------------------------
curl -sf "http://$COORD/metrics" > "$WORK/metrics.txt"
for fam in d3l_replica_breaker_state d3l_replica_failovers_total \
           d3l_replica_probe_failures_total d3l_replica_hedge_wins_total; do
  grep -q "^# TYPE $fam " "$WORK/metrics.txt" || {
    echo "metric family $fam missing from coordinator /metrics" >&2; exit 1; }
done
FAILOVERS=$(awk '/^d3l_replica_failovers_total/ {print $2}' "$WORK/metrics.txt")
if [ -z "$FAILOVERS" ] || [ "$FAILOVERS" -eq 0 ]; then
  echo "d3l_replica_failovers_total is ${FAILOVERS:-absent} — the drill never forced a failover" >&2
  exit 1
fi
echo "failovers recorded: $FAILOVERS"

# Only replica 0 of each shard was killed, so every group still has a
# healthy replica and the coordinator must still report ready.
curl -sf "http://$COORD/v1/readyz" > /dev/null || {
  echo "readyz != 200 with one live replica per group" >&2; exit 1; }

echo "chaos smoke passed"
