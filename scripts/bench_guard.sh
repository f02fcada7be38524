#!/usr/bin/env bash
# bench_guard.sh — paired warm-solve perf regression gate.
#
# Builds the internal/core test binary twice with `go test -c`: once from a
# base commit, checked out into a temporary git worktree outside this
# checkout, and once from this checkout (HEAD). It then runs the two binaries
# alternately for RUNS rounds over the guarded benchmarks, each run taking
# 30 samples of BENCHTIME, and compares their ns_per_arc metric (per-arc
# sweep cost, reported by every warm bench in
# internal/core/engine_bench_test.go). It fails when HEAD's minimum exceeds
# the base's minimum by more than THRESHOLD_PCT percent on any guarded bench.
#
# Both sides run in the same minutes on the same host, so the gate measures
# the code, not the hour: an absolute baseline (the committed BENCH_core.json
# rows, kept as a record) moves with co-tenant load and differs from one
# runner to the next. The minimum is the estimator because interference only
# ever adds time, and many short samples (one solve each by default) give it
# quiet windows to find; the GC is off so that no sample pays for another's
# garbage, and which side runs first flips every round.
#
# Usage:
#   BASE=origin/main scripts/bench_guard.sh
#   BASE=<sha> RUNS=20 BENCHTIME=1x THRESHOLD_PCT=10 scripts/bench_guard.sh
#
# BASE is any commit-ish; it is required. Guarded benches: the warm serving
# path (factored d2pr transition) and the implicit-uniform path. Cold-solve
# and parallel-sweep benches are excluded — their times are dominated by
# allocation and scheduling, which swing too much to gate on.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE="${BASE:?bench_guard: set BASE to the commit to compare against}"
RUNS="${RUNS:-20}"
BENCHTIME="${BENCHTIME:-1x}"
THRESHOLD_PCT="${THRESHOLD_PCT:-10}"

GUARDED='^BenchmarkCoreSolveWarm(|Uniform)$'

tmp="$(mktemp -d)"
cleanup() {
  git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

base_sha="$(git rev-parse --verify "$BASE^{commit}")"
git worktree add --quiet --detach "$tmp/base" "$base_sha"
(cd "$tmp/base" && go test -c -o "$tmp/base.test" ./internal/core)
go test -c -o "$tmp/head.test" ./internal/core

echo "bench_guard: base ${base_sha:0:12} vs HEAD, $RUNS alternating rounds of $GUARDED, 30 samples of $BENCHTIME each, gate +${THRESHOLD_PCT}%"
raw="$tmp/raw"
run() { # run <side> <tree>: one round of the guarded benches on one side
  (cd "$2/internal/core" && GOGC=off "$tmp/$1.test" -test.run '^$' -test.bench "$GUARDED" \
    -test.benchtime "$BENCHTIME" -test.count 30 -test.timeout 10m) |
    sed -n "s/^Benchmark/$1 Benchmark/p" >>"$raw"
}
for ((i = 1; i <= RUNS; i++)); do
  if ((i % 2)); then
    run base "$tmp/base"
    run head .
  else
    run head .
    run base "$tmp/base"
  fi
done

# Min ns_per_arc per (side, bench), then HEAD against the base. POSIX awk
# only (runners ship mawk).
awk -v thresh="$THRESHOLD_PCT" '
{
  side = $1
  name = $2
  sub(/-[0-9]+$/, "", name)
  for (i = 4; i < NF; i++)
    if ($(i + 1) == "ns_per_arc") {
      v = $i + 0
      k = side SUBSEP name
      if (!(k in min) || v < min[k]) min[k] = v
      names[name] = 1
    }
}
END {
  fails = 0
  checked = 0
  for (name in names) {
    b = "base" SUBSEP name
    h = "head" SUBSEP name
    if (!(b in min) || !(h in min)) {
      printf "bench_guard: %-30s measured on one side only, skipped\n", name
      continue
    }
    checked++
    delta = (min[h] / min[b] - 1) * 100
    verdict = "ok"
    if (min[h] > min[b] * (1 + thresh / 100)) { verdict = "REGRESSION"; fails++ }
    printf "bench_guard: %-30s base %7.3f  head %7.3f ns/arc  (%+6.1f%%)  %s\n", \
      name, min[b], min[h], delta, verdict
  }
  if (checked == 0) {
    print "bench_guard: no guarded bench was measured on both sides" > "/dev/stderr"
    exit 2
  }
  if (fails > 0) {
    printf "bench_guard: %d bench(es) regressed beyond +%s%%\n", fails, thresh > "/dev/stderr"
    exit 1
  }
  print "bench_guard: all guarded benches within threshold"
}
' "$raw"
