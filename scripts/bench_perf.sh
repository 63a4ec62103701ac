#!/usr/bin/env bash
# Simulator-core performance measurement (see docs/ARCHITECTURE.md,
# "Simulator core performance").
#
# Builds Release, then:
#   1. bench_sim_core — events/sec of sim::Scheduler vs. the frozen seed
#      queue (bench/seed_scheduler.h) on synthetic churn (gates the >=3x
#      headline and timer_fire_small >= 1.0x), plus allocation-free /
#      determinism / seed-equivalence checks. Its JSON report is
#      BENCH_sim_core.json as written.
#   2. The collective-library sweeps (bench_coll_allreduce, bench_coll_halo)
#      against the conventional MPI/IB stack.
#
# Simulated-result drift is checked by diffing bench output between two
# builds (parent and change), not inside one build: there is one scheduler.
#
# Everything lands in BENCH_sim_core.json and BENCH_coll.json at the
# repository root. Collector outputs (reports, JSON fragments) live under
# $BUILD/bench_out inside the repo — require_in_repo refuses any path that
# escapes the repository root, loudly.
set -u
cd "$(dirname "$0")/.."
REPO_ROOT=$(pwd)

BUILD=build-perf
OUT="$BUILD/bench_out"
JSON=BENCH_sim_core.json
COLL_JSON=BENCH_coll.json

# Every path a collector writes must resolve inside the repository root.
# A collector quietly dropping files in /tmp (or anywhere else outside the
# repo) is how benchmark artifacts silently diverge from what gets
# committed — fail loudly instead.
require_in_repo() {
  local resolved
  resolved=$(realpath -m "$1")
  case "$resolved" in
    "$REPO_ROOT"/*) return 0 ;;
    *)
      echo "FATAL: collector output '$1' resolves to '$resolved'," >&2
      echo "       which is outside the repository root '$REPO_ROOT'" >&2
      exit 1
      ;;
  esac
}

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null || exit 1
cmake --build "$BUILD" -j --target \
  bench_sim_core bench_coll_allreduce bench_coll_halo > /dev/null || exit 1
mkdir -p "$OUT"

echo "== bench_sim_core (events/sec: indexed vs. seed queue) =="
require_in_repo "$JSON"
"$BUILD"/bench/bench_sim_core --json "$JSON" || exit 1
echo
echo "wrote $JSON"

status=0

echo
echo "== collective library vs the conventional stack =="
require_in_repo "$OUT/bench_coll_allreduce.json"
require_in_repo "$OUT/bench_coll_halo.json"
"$BUILD"/bench/bench_coll_allreduce --json "$OUT/bench_coll_allreduce.json" \
  > "$OUT/bench_coll_allreduce.txt" 2>&1 || status=1
"$BUILD"/bench/bench_coll_halo --json "$OUT/bench_coll_halo.json" \
  > "$OUT/bench_coll_halo.txt" 2>&1 || status=1
{
  echo "{"
  echo "\"allreduce\":"
  cat "$OUT/bench_coll_allreduce.json"
  echo ","
  echo "\"halo\":"
  cat "$OUT/bench_coll_halo.json"
  echo "}"
} > "$COLL_JSON"
echo
echo "wrote $COLL_JSON"
exit $status
