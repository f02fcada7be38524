#!/usr/bin/env bash
# bench.sh — benchmark regression harness.
#
# Runs two suites and emits one JSON file each, so successive PRs have a
# perf trajectory to compare against:
#
#   BENCH_serve.json — serving layer (internal/server): cold solve, warm
#                      cache hit, 20-config batch-vs-sequential sweep, warm
#                      personalized (/ppr) hit, warm /correlate hit, and the
#                      parallel telemetry middleware overhead
#                      (BenchmarkMiddlewareRecord).
#   BENCH_core.json  — solver engine (internal/core) + personalized path
#                      (internal/rankcache): cold (re-transpose) vs warm
#                      (cached-engine) solve, implicit-uniform solve, the
#                      cache-blocked sweep with 1, 4 and 8 workers on a
#                      skewed power-law graph, plus the PPR serving pair —
#                      cold forward push per seed (BenchmarkPPRColdSeed) vs
#                      warm cached top-k lookup (BenchmarkPPRWarmSeed; must
#                      be ≥100× faster) and the admission-path mixed-traffic
#                      bench.
#
# BENCH_core.json also carries BenchmarkCoreSolveCancelOverhead: the warm
# solve re-run under an (uncancelled) context, whose per-iteration ctx poll
# must stay within 1% of BenchmarkCoreSolveWarm — the cost of making every
# solve cancellable.
#
# Usage:
#   scripts/bench.sh                 # default: -benchtime 1s, -count 1
#   BENCHTIME=5x COUNT=3 scripts/bench.sh
#   OUTDIR=/tmp scripts/bench.sh
#
# The JSON shape (both files); the header records the host, since a speed
# number means nothing without it:
#   {
#     "generated_at": "2026-01-01T00:00:00Z",
#     "go": "go1.24.x",
#     "benchtime": "1s",
#     "cpu": "Intel(R) Xeon(R) Processor",
#     "nproc": 2,
#     "gomaxprocs": 2,
#     "benchmarks": [
#       {"name": "BenchmarkCoreSolveWarm", "iterations": 97,
#        "ns_per_op": 11758747, "bytes_per_op": 245826, "allocs_per_op": 2,
#        "ns_per_arc": 1.534}
#     ]
#   }
# ns/bytes/allocs come from -benchmem; any extra `value unit` pairs emitted
# via b.ReportMetric (e.g. the sweep benches' "blocks" count, see
# internal/core/engine_bench_test.go) land as additional fields.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-1}"
OUTDIR="${OUTDIR:-.}"

# The host: CPU model (Linux /proc/cpuinfo), online CPUs, and the GOMAXPROCS
# the benchmarks run with (the environment's, else the Go default, nproc).
CPU="$(awk -F': *' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
CPU="${CPU:-unknown}"
CPU="${CPU//\\/\\\\}" # JSON-escape backslashes and quotes
CPU="${CPU//\"/\\\"}"
export BENCH_CPU="$CPU"
NPROC="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
GOMAXPROCS_USED="${GOMAXPROCS:-$NPROC}"

RAWS=()
trap 'rm -f "${RAWS[@]}"' EXIT

run_suite() {
  local pkg="$1" pattern="$2" out="$3"
  local raw
  raw="$(mktemp)"
  RAWS+=("$raw")
  # $pkg is intentionally unquoted: a suite may span several packages.
  go test $pkg -run '^$' -bench "$pattern" -benchmem \
    -benchtime "$BENCHTIME" -count "$COUNT" | tee "$raw"

  awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
      -v gover="$(go env GOVERSION)" \
      -v benchtime="$BENCHTIME" \
      -v nproc="$NPROC" -v gomaxprocs="$GOMAXPROCS_USED" '
  BEGIN {
    cpu = ENVIRON["BENCH_CPU"] # not -v, which would expand the escapes
    printf "{\n  \"generated_at\": \"%s\",\n  \"go\": \"%s\",\n  \"benchtime\": \"%s\",\n", date, gover, benchtime
    printf "  \"cpu\": \"%s\",\n  \"nproc\": %d,\n  \"gomaxprocs\": %d,\n  \"benchmarks\": [", cpu, nproc, gomaxprocs
    sep = ""
  }
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)          # strip the -GOMAXPROCS suffix
    printf "%s\n    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", sep, name, $2, $3
    for (i = 4; i < NF; i++) {
      unit = $(i+1)
      if (unit == "B/op")           printf ", \"bytes_per_op\": %s", $i
      else if (unit == "allocs/op") printf ", \"allocs_per_op\": %s", $i
      else if ($i ~ /^[0-9.eE+-]+$/ && unit ~ /^[A-Za-z_][A-Za-z0-9_]*$/) \
                                    printf ", \"%s\": %s", unit, $i
    }
    printf "}"
    sep = ","
  }
  END { print "\n  ]\n}" }
  ' "$raw" > "$out"
  rm -f "$raw"
  echo "wrote $out"
}

run_suite ./internal/server 'BenchmarkRankRequest|BenchmarkSweep20|BenchmarkPPRRequest|BenchmarkCorrelate|BenchmarkMiddleware' "$OUTDIR/BENCH_serve.json"
run_suite "./internal/core ./internal/rankcache" 'BenchmarkCore|BenchmarkPPR' "$OUTDIR/BENCH_core.json"
