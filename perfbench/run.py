#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload and seed.

    python3 perfbench/run.py --workload boom-lowact --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout. It configures and builds
perfbench/ (which compiles the simulator libraries from src/) into the
directory named by $CARGO_TARGET_DIR, default .bench_build, then runs the
perfbench binary. Everything it writes stays under that directory. The last
line of stdout is the result object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

perfbench/README.md documents the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("boom-lowact", "systolic-dense", "midsoc-compiled", "essentd-mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; on timeout the whole group is killed."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout:.0f} s")
    return proc.returncode, out


def build(build_dir, env):
    cmake_dir = build_dir / "cmake"
    if not (cmake_dir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        code, _ = run_group(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(cmake_dir),
                             "-DCMAKE_BUILD_TYPE=Release", *gen],
                            900, stdout=sys.stderr, env=env)
        if code != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    code, _ = run_group(["cmake", "--build", str(cmake_dir), "-j", jobs], 900,
                        stdout=sys.stderr, env=env)
    if code != 0:
        fail("build failed")
    return cmake_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT}/src; run from a source checkout")

    build_dir = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    # Compilers and the benchmark's scratch files go under the build tree.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    binary = build(build_dir, env)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.relpath(build_dir, ROOT)]
    t0 = time.monotonic()
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                          text=True)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        fail(f"perfbench exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench printed no result line")
    print(f"run: {time.monotonic() - t0:.1f} s", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
