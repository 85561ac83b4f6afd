#!/usr/bin/env python3
"""Build and run the qoc end-to-end benchmark.

Usage (from the repository root):

    python3 qocbench/run.py --workload <train_pgp|serve_unique|serve_hot> \
        --seed <n> --seconds <s> --trace <0|1>

Configures and builds qocbench/ (which builds the qoc library from the
repository sources, Release) into $CARGO_TARGET_DIR/qocbench, or
.bench_build/qocbench when that variable is unset, then runs the
`qocbench` binary with the same arguments. Build output goes to stderr;
the binary's stdout, whose last line is the JSON result, is passed
through. A traced run (--trace 1) writes its Chrome trace into the build
directory. Exits non-zero when the build fails, the binary fails a
check, or the run exceeds its time limit.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "qocbench")


def build(out):
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", out, "--target", "qocbench", "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(out, "qocbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["train_pgp", "serve_unique", "serve_hot"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        print("qocbench: no qoc sources at " + ROOT, file=sys.stderr)
        return 2
    out = build_dir()
    try:
        exe = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print("qocbench: build failed: %s" % e, file=sys.stderr)
        return 3

    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--out-dir", out]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("qocbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
