#!/usr/bin/env python3
"""Builds the agent-system benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 agentbench/run.py --workload build --seed 1 --seconds 20 --trace 0
    python3 agentbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/agentbench (default .bench_build/agentbench)
inside the checkout; its output goes to standard error, so the benchmark's JSON
result stays the last line of standard output. Exits non-zero, printing no
result, when the build fails (for example when the repository's sources are
not there).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "agentbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return build_dir


def main():
    build_dir = build()
    if build_dir is None:
        print("agentbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if args == ["--selftest"]:
        cmd = [os.path.join(build_dir, "agentbench_selftest")]
    else:
        cmd = [os.path.join(build_dir, "agentbench")] + args
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
