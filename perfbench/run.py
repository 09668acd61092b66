#!/usr/bin/env python3
"""Builds and runs the TM2C benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
builds the tm2c library from ../src) into .bench_build/perfbench, then
runs one workload and passes its output through: the last line of
standard output is the JSON result. Exits non-zero when the build fails,
a correctness check fails or the run overruns its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "tm2c_perfbench")
# Working directory of the binary: span traces and the fsync probe's log
# land here.
RUN_DIR = os.path.join(BUILD_DIR, "run")
# The run itself; the build before it is a no-op after the first run.
RUN_LIMIT_S = 150
# Compiler and tool temporaries stay inside the build directory too.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))


def build():
    """Configures (once) and builds the benchmark binary; build output
    goes to stderr so standard output stays the benchmark's."""
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, env=ENV, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "tm2c_perfbench", "-j", jobs],
                   stdout=sys.stderr, env=ENV, check=True)


def run(args, extra, limit_s=RUN_LIMIT_S):
    """Runs the binary; returns (exit code, stdout text). The binary runs
    in its own process group, killed as a whole on overrun."""
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace] + extra
    proc = subprocess.Popen(cmd, cwd=RUN_DIR, env=ENV, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run exceeded %d s and was killed" % limit_s, file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--plant-fault", action="store_true",
                   help="corrupt one loaded store word; the checks must fail")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    extra = (["--tiny"] if args.tiny else []) + (["--plant-fault"] if args.plant_fault else [])
    code, out = run(args, extra)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
