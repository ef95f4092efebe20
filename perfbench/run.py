#!/usr/bin/env python3
"""Entry point of the PHAST benchmark.

    python3 perfbench/run.py --workload tree_serve --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the system under test and the
measuring program (perfbench/CMakeLists.txt) into .bench_build/, runs one
workload in a fresh working directory under .bench_build/work/, and relays
its output: an info line (host and instance block), then the result line
{"correct", "attempted", "failed", "metrics"} as the last line of stdout.
Exits non-zero, without a result line, if the build or the run fails or an
answer is wrong. --smoke runs the toy-size configuration (see README.md).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("tree_serve", "table_serve", "batch_trees", "reweight_serve")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configures on first use, then builds incrementally; True on success."""
    cmake_dir = os.path.join(build_dir, "cmake")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                         "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                # Leave no half-configured tree behind for the next run.
                shutil.rmtree(cmake_dir, ignore_errors=True)
                return False
        jobs = str(os.cpu_count() or 1)
        return subprocess.call(["cmake", "--build", cmake_dir, "-j", jobs],
                               stdout=log, stderr=log) == 0


def wait_group_gone(pgid, timeout_s=10.0):
    """Waits until no process of the group is left (or the timeout)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    if not build(root, build_dir):
        sys.stderr.write("perfbench: build failed (see .bench_build/build.log)\n")
        return 1
    binary = os.path.join(build_dir, "cmake", "phast_perfbench")

    work = os.path.join(build_dir, "work", "%s-%d-%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace]
    if args.smoke:
        cmd.append("--smoke=true")
    # Its own session, so the router and replicas it spawns can be reaped as
    # one process group whatever happens to the run.
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = b""
        sys.stderr.write("perfbench: run timed out\n")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        wait_group_gone(proc.pid)

    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        for line in lines[:-1]:
            sys.stderr.write(line + "\n")
        sys.stderr.write("perfbench: %s failed (exit %s); logs in %s\n" % (
            args.workload, proc.returncode, work))
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: malformed result line\n")
        return 1
    trace = os.path.join(work, "trace.json")
    if os.path.exists(trace):
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        shutil.move(trace, os.path.join(traces, "%s-%d.json" % (
            args.workload, args.seed)))
    shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
