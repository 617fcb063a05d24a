#!/usr/bin/env bash
# shard_snapshot.sh — produce BENCH_PR9.json: shard-scaling numbers for
# the serving stack. The same seeded read workload (lake seed 1307,
# loadgen seed 42, mix topk=4,query=4,batch=1) is replayed over HTTP
# against the monolith and against `d3l serve -shards N` for N in
# SHARDS, one server at a time on loopback; the committed file records
# the full SLO report per configuration, so throughput and latency
# quantiles can be compared across shard counts and across PRs.
#
# Caching is left on (the default serving configuration): the workload
# cycles 8 distinct targets, so after warmup this measures the steady
# state a deployment would actually see. Reruns on one machine replay
# the identical request sequence; numbers move only with hardware.
#
# Usage: scripts/shard_snapshot.sh [output.json]
#   SHARDS="2 3"   shard counts to measure alongside the monolith
#   DURATION=10s   recorded loadgen run length per configuration
#   WARMUP=2s      loadgen warmup (load applied, latencies discarded)
#   WORKERS=4      closed-loop loadgen workers
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_PR9.json}"
SHARDS="${SHARDS:-2 3}"
DURATION="${DURATION:-10s}"
WARMUP="${WARMUP:-2s}"
WORKERS="${WORKERS:-4}"
ADDR=127.0.0.1:8198

WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/d3l" ./cmd/d3l
"$WORK/d3l" generate -kind synthetic -out "$WORK/lake" -tables 20 -seed 1307
"$WORK/d3l" index build -dir "$WORK/lake" -out "$WORK/mono.d3l"

measure() { # measure <report.json> <serve args...>
  local report="$1"; shift
  "$WORK/d3l" "$@" -addr "$ADDR" &
  SERVE_PID=$!
  for _ in $(seq 1 50); do
    curl -sf "http://$ADDR/v1/healthz" > /dev/null && break
    sleep 0.2
  done
  "$WORK/d3l" loadgen -url "http://$ADDR" -dir "$WORK/lake" \
    -workers "$WORKERS" -warmup "$WARMUP" -duration "$DURATION" -seed 42 \
    -mix topk=4,query=4,batch=1 \
    -fail-on-5xx -require-metrics -max-p99 2s \
    -out "$report"
  kill "$SERVE_PID" 2>/dev/null || true
  wait "$SERVE_PID" 2>/dev/null || true
  SERVE_PID=""
}

measure "$WORK/mono.json" serve -index "$WORK/mono.d3l"
for n in $SHARDS; do
  "$WORK/d3l" index build -dir "$WORK/lake" -shards "$n" -out "$WORK/shards-$n"
  measure "$WORK/shards-$n.json" serve -index "$WORK/shards-$n" -shards "$n"
done

# Merge textually, as slo_snapshot.sh does: the inputs are
# machine-written (trailing newline, no trailing comma), so reindenting
# and splicing is safe without JSON tooling.
{
  printf '{\n'
  printf '  "generated_by": "scripts/shard_snapshot.sh",\n'
  printf '  "monolith": '
  sed '2,$s/^/  /' "$WORK/mono.json" | sed '$s/$/,/'
  last=""
  for n in $SHARDS; do last="$n"; done
  for n in $SHARDS; do
    printf '  "shards_%s": ' "$n"
    if [ "$n" = "$last" ]; then
      sed '2,$s/^/  /' "$WORK/shards-$n.json"
    else
      sed '2,$s/^/  /' "$WORK/shards-$n.json" | sed '$s/$/,/'
    fi
  done
  printf '}\n'
} > "$OUT"

echo "wrote $OUT"
