#!/usr/bin/env python3
"""Smoke self-test of the repository benchmark.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs one set-up, one warm-up and one
timed round (run.py --smoke), untraced and traced, and checks that:
  * every end-to-end (untraced) and per-layer (traced) metric is emitted
    with the unit BENCHMARK.json names, and nothing else;
  * no operation failed (error_rate 0) and end-to-end values are non-zero;
  * tracing does not perturb the model: both runs print the same digest of
    simulated outputs, and the simulated op spans in the trace file give the
    untraced sim_op_us_p50 and sim_op_us_tail exactly.
It also checks that the benchmark refuses to run with a scheduler override
in the environment. Exits non-zero on the first failed check.
"""
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check(ok, what, detail=""):
    print(f"  [{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        sys.exit(detail)


def run(workload, trace, env=None):
    out = subprocess.run(RUN + ["--workload", workload, "--seed", "7",
                                "--seconds", "1", "--trace", str(trace),
                                "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, env=env)
    return out


def parse(out):
    lines = out.stdout.strip().splitlines()
    info = {}
    for line in lines:
        key, _, rest = line.partition(": ")
        info[key] = rest
    return json.loads(lines[-1]), info


def tail(values):
    """The binary's tail: max(10, n // 100) samples beyond it; the maximum
    below 11 samples."""
    values = sorted(values)
    if len(values) < 11:
        return values[-1]
    return values[-1 - max(10, len(values) // 100)]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"] +
             bench["workloads"]]

    print("BENCHMARK.json")
    check(all(NAME.match(n) for n in names), "every name is well formed")
    check(len(names) == len(set(names)), "every name is used once")
    check(e2e.get("setup_s") == "s", "setup_s is reported in seconds")
    check(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]),
          "every bound is in (0, 0.25]")

    for wl in bench["workloads"]:
        name = wl["name"]
        print(name)
        plain = run(name, 0)
        check(plain.returncode == 0, "untraced run exits 0", plain.stderr)
        res, info = parse(plain)
        check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
              f"error_rate 0 ({info.get('error_rate')})")
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == e2e, "end-to-end metrics emitted with their units")
        check(all(v["value"] > 0 for v in res["metrics"].values()),
              "end-to-end values are non-zero")

        traced = run(name, 1)
        check(traced.returncode == 0, "traced run exits 0", traced.stderr)
        tres, tinfo = parse(traced)
        check(tres["correct"] and tres["failed"] == 0,
              f"traced error_rate 0 ({tinfo.get('error_rate')})")
        got = {k: v["unit"] for k, v in tres["metrics"].items()}
        check(got == layer, "per-layer metrics emitted with their units")
        check(info["digest"] == tinfo["digest"],
              "traced and untraced runs print the same simulated digest")

        spans = json.loads(Path(tinfo["trace"].split(" -> ")[1]).read_text())
        ops = [e["dur"] for e in spans["traceEvents"]
               if e.get("pid") == 2 and e.get("ph") == "X" and
               (e["name"].endswith(".rank") or e["name"].startswith("put."))]
        p50 = res["metrics"]["sim_op_us_p50"]["value"]
        tl = res["metrics"]["sim_op_us_tail"]["value"]
        check(ops and abs(statistics.median(ops) - p50) < 1e-6 and
              abs(tail(ops) - tl) < 1e-6,
              f"traced op spans give sim_op_us_p50 {p50} and tail {tl}")

    print("guards")
    env = dict(os.environ, TCA_SCHED_BASELINE="1")
    refused = run(bench["workloads"][0]["name"], 0, env)
    check(refused.returncode != 0 and "{" not in refused.stdout,
          "refuses to run with TCA_SCHED_BASELINE set")
    print("selftest: OK")


if __name__ == "__main__":
    main()
