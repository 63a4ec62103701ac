#!/usr/bin/env bash
# Fast pre-commit gate: Release build with warnings, tca_lint over the
# whole tree (coroutine-lifetime / determinism / register-map invariants),
# a clang-tidy baseline diff (skipped when clang-tidy is not installed),
# full test suite (soak label excluded — run `ctest -L soak` for the long
# fault campaigns), the repository benchmark self-test (perfbench/), a
# sanitizer pass over the fault, collective, host-wait and router suites,
# a ~1 s bench_sim_core smoke run (scheduler speedup tripwire + allocation,
# determinism and seed-equivalence checks), collective bench smoke runs, a
# simulated-time identity check of the full collective sweeps against the
# committed BENCH_coll.json,
# a chaos smoke (seeded campaigns with same-seed replay check + committed
# corpus replay), and tca_explore smoke invocations (--stats and
# --workload).
#
# The build trees are CMake presets (CMakePresets.json): `check` is the
# Release gate, `asan` the instrumented suites, `perf` the bench
# tree. For a full instrumented pass: cmake --preset asan && ctest
# --preset asan (drop the filter by running ctest --test-dir
# build-check-asan directly).
set -eu
cd "$(dirname "$0")/.."

BUILD=build-check

cmake --preset check > /dev/null
cmake --build --preset check -j

echo "== tca_lint (project invariants) =="
# --cache-dir: per-file lex/analysis results keyed by content hash, so
# repeated gate runs only re-analyze what changed.
"$BUILD"/tools/tca_lint/tca_lint --root . --cache-dir "$BUILD"/lint-cache

echo "== clang-tidy (baseline diff; skips when not installed) =="
scripts/clang_tidy.sh "$BUILD"

echo "== tests =="
ctest --preset check -j "$(nproc)"

echo "== repository benchmark self-test =="
# Builds perfbench/ (its own Release tree over src/) and smoke-runs every
# workload: a src/ change that breaks the benchmark's build, its metric
# names, or traced/untraced digest equality fails here.
python3 perfbench/selftest.py

echo "== fault, driver, API, router, TLP data-path and workload suites under ASan/UBSan =="
SAN_BUILD=build-check-asan
cmake --preset asan > /dev/null
cmake --build --preset asan -j --target fault_test fault_recovery_test coll_test \
  node_test api_test driver_test channel_test chip_test fabric_test \
  topology_test pcie_test gpu_test peach2_test workload_test
ctest --preset asan -j "$(nproc)"

echo "== bench_sim_core smoke =="
"$BUILD"/bench/bench_sim_core --smoke

echo "== collective bench smoke =="
"$BUILD"/bench/bench_coll_allreduce --smoke
"$BUILD"/bench/bench_coll_halo --smoke

echo "== simulated-time identity (collective sweeps vs BENCH_coll.json) =="
# A host-only change (event plumbing, allocation, waits) must not move one
# simulated picosecond: rerun both full sweeps (~2 s) and compare every
# coll_ps / mpi_ps with the committed BENCH_coll.json, naming the first row
# that differs.
"$BUILD"/bench/bench_coll_allreduce --json "$BUILD"/coll_allreduce.json \
  > /dev/null
"$BUILD"/bench/bench_coll_halo --json "$BUILD"/coll_halo.json > /dev/null
python3 - BENCH_coll.json "$BUILD"/coll_allreduce.json \
  "$BUILD"/coll_halo.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    committed = json.load(f)
for name, path in (("allreduce", sys.argv[2]), ("halo", sys.argv[3])):
    with open(path) as f:
        got = json.load(f)["sweep"]
    want = committed[name]["sweep"]
    if len(got) != len(want):
        sys.exit(f"{name}: {len(got)} rows, BENCH_coll.json has {len(want)}")
    for w, g in zip(want, got):
        row = {k: v for k, v in w.items() if k.endswith(("nodes", "bytes"))}
        for field in ("nodes", "bytes", "row_bytes", "coll_ps", "mpi_ps"):
            if w.get(field) != g.get(field):
                sys.exit(f"{name} row {row}: {field} = {g.get(field)}, "
                         f"BENCH_coll.json has {w.get(field)}")
print("simulated time identical to BENCH_coll.json "
      f"({sum(len(committed[n]['sweep']) for n in committed)} rows)")
EOF

echo "== tca_explore --stats smoke =="
METRICS_JSON=$(mktemp)
trap 'rm -f "$METRICS_JSON"' EXIT
"$BUILD"/tools/tca_explore --nodes 4 --op pipelined --target remote-host \
  --dest 2 --burst 8 --sizes 4096 --stats-out "$METRICS_JSON"
if command -v python3 > /dev/null 2>&1; then
  python3 - "$METRICS_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("meta", "counters", "gauges", "histograms"):
    assert key in doc, f"metrics JSON missing top-level key: {key}"
assert doc["meta"].get("schema") == "tca-metrics-v1", "unknown metrics schema"
assert doc["counters"].get("fabric.payload_bytes", 0) > 0, \
    "no payload crossed the fabric"
print(f"metrics JSON OK ({len(doc['counters'])} counters)")
EOF
else
  # No python3: at least require the schema marker and a fabric counter.
  grep -q '"schema": "tca-metrics-v1"' "$METRICS_JSON"
  grep -q '"fabric.payload_bytes"' "$METRICS_JSON"
  echo "metrics JSON OK (grep fallback)"
fi

echo "== tca_explore --workload smoke =="
"$BUILD"/tools/tca_explore --workload allreduce --size 65536 --nodes 4
"$BUILD"/tools/tca_explore --workload halo --size 2048 --nodes 4

echo "== chaos smoke (seeded campaigns + same-seed replay check) =="
# Fast slice of the nightly soak: 25 seeded campaigns over both fabrics,
# each replayed to hold metrics/traces byte-identical, plus a replay of the
# committed regression corpus. The full 1000+-campaign sweep runs nightly
# (.github/workflows/nightly-soak.yml).
# TCA_LOG=error: fault campaigns legitimately emit driver/link WARNs;
# keep the per-campaign summary lines readable.
TCA_LOG=error "$BUILD"/tools/tca_chaos --seed 1 --campaigns 25 --replay-check
TCA_LOG=error "$BUILD"/tools/tca_chaos --corpus tests/chaos

echo "== tca_explore torus smoke =="
# 2D torus, dimension-order routed: a cross-dimension DMA plus workloads
# riding the boustrophedon ring order (each verifies its bytes and exits
# non-zero on a mismatch).
"$BUILD"/tools/tca_explore --topology torus:4x4 --op pipelined \
  --target remote-host --dest 5 --burst 8 --sizes 4096
"$BUILD"/tools/tca_explore --topology torus:4x4 --workload allreduce \
  --size 65536
"$BUILD"/tools/tca_explore --topology torus:4x4 --workload halo --size 2048
"$BUILD"/tools/tca_explore --topology torus:4x4 --workload pingpong \
  --size 2048

echo "check.sh: OK"
