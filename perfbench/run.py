#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload tig_solve --seed 1 --seconds 20 --trace 0

Run from the checkout root.  The library and the benchmark program are
built into `.bench_build/` there (configured once, then rebuilt
incrementally); build output goes to stderr.  All other arguments pass
through to the program, whose last line of stdout is the result JSON.
The exit status is the program's: 0 only when every correctness check
passed.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests instead.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    command = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def git_sha():
    # Only this checkout's own repository, never one enclosing it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main(argv):
    target = "perfbench_test" if argv == ["--self-test"] else "perfbench"
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, target)
    if target == "perfbench_test":
        return subprocess.run([binary]).returncode
    sys.stdout.flush()
    return subprocess.run([binary, "--git-sha", git_sha()] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
