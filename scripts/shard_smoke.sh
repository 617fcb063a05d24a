#!/usr/bin/env bash
# shard_smoke.sh — end-to-end smoke of the sharded serving topology,
# runnable locally and as the CI sharded job. It stands up the full
# deployment shape on loopback:
#
#   d3l index build -shards 2  →  shard-000.d3l, shard-001.d3l, manifest
#   two `d3l serve` shard replicas (one snapshot each)
#   one `d3l coordinator` fanning out to both
#   one in-process sharded `d3l serve -shards 2 -index <manifest>`
#   one monolith `d3l serve` over the same lake — the reference
#
# and then gates on the subsystem's two contracts:
#
#   1. Exactness: /v1/query and /v1/batch answers from the
#      in-process sharded replica AND the coordinator are byte-identical
#      to the monolith's (the same property the golden tests pin, here
#      proven through real binaries and real sockets), rankings and
#      explanations alike: an explanation crosses the replica →
#      coordinator hop as the library's own JSON before the answer is
#      re-encoded.
#   2. Serving health: a gated loadgen pass round-robined across the
#      coordinator and both shard replicas — any 5xx fails, required
#      metric families must appear, generous absolute p99 ceiling.
#
# The loadgen mix is read-only: direct-to-replica mutations would
# bypass placement and the coordinator's id assignment that exactness
# rests on (mutations belong on the coordinator or the in-process
# sharded replica, which is what the shard test suite drives).
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

start() { # start <addr> <args...>: launch a server and wait for health
  local addr="$1"; shift
  "$WORK/d3l" "$@" -addr "$addr" &
  PIDS+=($!)
  for _ in $(seq 1 50); do
    if curl -sf "http://$addr/v1/healthz" > /dev/null; then return 0; fi
    sleep 0.2
  done
  echo "replica on $addr never became healthy" >&2
  return 1
}

MONO=127.0.0.1:8190
SHARD0=127.0.0.1:8191
SHARD1=127.0.0.1:8192
COORD=127.0.0.1:8193
INPROC=127.0.0.1:8194

start "$MONO"   serve -index "$WORK/mono.d3l"
start "$SHARD0" serve -index "$WORK/shards/shard-000.d3l"
start "$SHARD1" serve -index "$WORK/shards/shard-001.d3l"
start "$COORD"  coordinator -shard "http://$SHARD0" -shard "http://$SHARD1"
start "$INPROC" serve -index "$WORK/shards" -shards 2

# --- Gate 1: byte-identity against the monolith -----------------------
# Targets are real lake tables, so answers are non-empty rankings; the
# request bodies are built from the CSVs themselves.
python3 - "$WORK/lake" "$WORK/bodies" <<'EOF'
import csv, json, os, sys
lake, out = sys.argv[1], sys.argv[2]
os.makedirs(out, exist_ok=True)
names = sorted(n for n in os.listdir(lake) if n.endswith(".csv"))
for i, name in enumerate(names[::7][:3]):
    with open(os.path.join(lake, name), newline="") as f:
        rows = list(csv.reader(f))
    table = {"name": "smoke_target", "columns": rows[0], "rows": rows[1:9]}
    body = {"table": table, "k": 5}
    with open(os.path.join(out, f"t{i}.json"), "w") as f:
        json.dump(body, f)
    batch = {"tables": [table], "k": 5}
    with open(os.path.join(out, f"b{i}.json"), "w") as f:
        json.dump(batch, f)
    if i == 0:
        # Explained against the lake table the target was cut from: with
        # a ranking (k 5) and alone (k 0).
        for j, k in enumerate((5, 0)):
            with open(os.path.join(out, f"e{j}.json"), "w") as f:
                json.dump({"table": table, "k": k, "explainFor": name[:-len(".csv")]}, f)
EOF

for body in "$WORK"/bodies/t*.json "$WORK"/bodies/e*.json; do
  curl -sf "http://$MONO/v1/query"   -d @"$body" > "$WORK/mono.out"
  curl -sf "http://$INPROC/v1/query" -d @"$body" > "$WORK/inproc.out"
  curl -sf "http://$COORD/v1/query"  -d @"$body" > "$WORK/coord.out"
  if ! cmp -s "$WORK/mono.out" "$WORK/inproc.out"; then
    echo "BYTE DIVERGENCE: in-process sharded /v1/query != monolith for $body" >&2
    diff <(python3 -m json.tool "$WORK/mono.out") <(python3 -m json.tool "$WORK/inproc.out") >&2 || true
    exit 1
  fi
  if ! cmp -s "$WORK/mono.out" "$WORK/coord.out"; then
    echo "BYTE DIVERGENCE: coordinator /v1/query != monolith for $body" >&2
    diff <(python3 -m json.tool "$WORK/mono.out") <(python3 -m json.tool "$WORK/coord.out") >&2 || true
    exit 1
  fi
done
for body in "$WORK"/bodies/e*.json; do
  curl -sf "http://$MONO/v1/query" -d @"$body" | grep -q '"explanation":\[{' || {
    echo "no explanation rows in the monolith's answer to $body" >&2; exit 1; }
done
for body in "$WORK"/bodies/b*.json; do
  curl -sf "http://$MONO/v1/batch"  -d @"$body" > "$WORK/mono.out"
  curl -sf "http://$COORD/v1/batch" -d @"$body" > "$WORK/coord.out"
  cmp -s "$WORK/mono.out" "$WORK/coord.out" || {
    echo "BYTE DIVERGENCE: coordinator /v1/batch != monolith for $body" >&2; exit 1; }
done
echo "byte-identity: coordinator and in-process sharded answers match the monolith"

# --- Gate 2: gated loadgen across coordinator + replicas --------------
# The first -url takes the /metrics scrape (the coordinator — the
# client-facing surface whose metric coverage the gate should hold).
"$WORK/d3l" loadgen \
  -url "http://$COORD" -url "http://$SHARD0" -url "http://$SHARD1" \
  -dir "$WORK/lake" \
  -workers 4 -warmup 2s -duration "${DURATION:-8s}" -seed 42 \
  -mix query=8,batch=1 \
  -fail-on-5xx -require-metrics -max-p99 2s \
  -out "${OUT:-$WORK/shard-slo.json}"

echo "shard smoke passed"
