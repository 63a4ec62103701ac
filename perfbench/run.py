#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload coll_small --seed 1 --seconds 10 --trace 0

Configures perfbench/ (the simulator libraries from ../src plus the
tca_perfbench harness) as a Release CMake build under $CARGO_TARGET_DIR
(default .bench_build) in the repository root, builds it, prints one
provenance line, and runs the driver. Build output goes to stderr, so the
last stdout line is the harness's JSON result. Exits non-zero, without a
result, when the simulator sources are missing or the build fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("coll_small", "coll_bulk", "p2p_torus")
# tca_perfbench itself stops after --seconds plus set-up; this only bounds a
# wedged simulation so the benchmark always exits within 180 s of a build.
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("error: simulator sources (src/) not found next to perfbench/")
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(bdir), "--target", "tca_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return bdir / "tca_perfbench"


def cache_value(bdir, key):
    for line in (bdir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return "unknown"


def commit():
    """The git commit when run from a clone, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
        top, head = out.stdout.split()
        if Path(top).resolve() == ROOT:
            return head
    except (OSError, subprocess.CalledProcessError, ValueError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def compiler(bdir):
    cxx = cache_value(bdir, "CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, check=True)
        return out.stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return cxx


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true",
                    help="one set-up, one warm-up and one timed round")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"error: build failed: {err}")

    print(f"provenance: build_type={cache_value(bdir, 'CMAKE_BUILD_TYPE')} "
          f"compiler=\"{compiler(bdir)}\" nproc={os.cpu_count()} "
          f"commit={commit()}", flush=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-out",
           str(bdir / f"trace-{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"error: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
