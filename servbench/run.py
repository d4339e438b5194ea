#!/usr/bin/env python3
"""Build the serving benchmark from source, then run one workload.

    python3 servbench/run.py --workload chat --seed 1 --seconds 10 --trace 0

Configures and builds servbench/ (which builds the library from the
repository root) into .bench_build/, then runs serve_bench with the
same arguments from the repository root. Build output goes to stderr,
so stdout carries only the benchmark's lines; its last line is the
result object. Exits nonzero, printing no result, when the build or
the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "serve_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"servbench: build failed: {err}", file=sys.stderr)
        return 1
    cmd = [str(BUILD / "serve_bench"), *sys.argv[1:],
           "--trace-out", str(BUILD / "serve_bench_trace.json")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("servbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
