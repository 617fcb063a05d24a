#!/usr/bin/env bash
# slo_snapshot.sh — produce BENCH_PR7.json: one committable snapshot
# combining the micro-benchmark numbers (via bench_snapshot.sh) with a
# serving SLO report from `d3l loadgen` driven against the in-process
# serving stack on a seeded synthetic lake. The micro half tracks
# per-call cost; the slo half tracks what a client actually sees —
# end-to-end latency quantiles per endpoint under a mixed closed-loop
# workload, with the /metrics coverage gate applied.
#
# Everything is seeded (lake seed 1307, loadgen seed 42), so reruns on
# the same machine replay the identical request sequence; only the
# latency numbers move with the hardware.
#
# Usage: scripts/slo_snapshot.sh [output.json]
#   COUNT=5        micro-benchmark repetitions (bench_snapshot.sh)
#   BENCHTIME=2x   per-benchmark -benchtime (bench_snapshot.sh)
#   DURATION=10s   recorded loadgen run length
#   WARMUP=2s      loadgen warmup (load applied, latencies discarded)
#   WORKERS=4      closed-loop loadgen workers
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_PR7.json}"
DURATION="${DURATION:-10s}"
WARMUP="${WARMUP:-2s}"
WORKERS="${WORKERS:-4}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

scripts/bench_snapshot.sh "$WORK/bench.json"

go build -o "$WORK/d3l" ./cmd/d3l
"$WORK/d3l" generate -kind synthetic -out "$WORK/lake" -tables 20 -seed 1307
"$WORK/d3l" index build -dir "$WORK/lake" -out "$WORK/lake.d3l"
# -direct: the serving stack runs in-process, so the snapshot measures
# the server (admission, cache, engine), not the benchmark machine's
# loopback stack. Gates stay on — a snapshot taken while the SLO is
# violated must fail, not get committed.
"$WORK/d3l" loadgen -direct -index "$WORK/lake.d3l" -dir "$WORK/lake" \
  -workers "$WORKERS" -warmup "$WARMUP" -duration "$DURATION" -seed 42 \
  -mix topk=4,query=4,batch=1,mutate=1 \
  -fail-on-5xx -require-metrics -max-p99 2s \
  -out "$WORK/slo.json"

# Merge the two reports textually — no JSON tooling in the image, and
# both inputs are machine-written (trailing newline, no trailing
# comma), so reindenting and splicing is safe.
{
  printf '{\n'
  printf '  "generated_by": "scripts/slo_snapshot.sh",\n'
  printf '  "bench": '
  sed '2,$s/^/  /' "$WORK/bench.json" | sed '$s/$/,/'
  printf '  "slo": '
  sed '2,$s/^/  /' "$WORK/slo.json"
  printf '}\n'
} > "$OUT"

echo "wrote $OUT"
