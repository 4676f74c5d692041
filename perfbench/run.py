#!/usr/bin/env python3
"""Benchmark entry point: builds the runner from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
libquarc plus the runner (Release) under .bench_build/perfbench; later
calls only rebuild what changed. The runner's stdout is passed through,
and its last line is the result object. Set-up or build failures exit
non-zero without printing a result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
# A run does a fixed amount of work sized to --seconds; this only stops a
# runner that hangs.
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "quarc"))):
        fail("no quarcnoc sources next to perfbench/ "
             "(expected CMakeLists.txt and src/quarc in " + ROOT + ")")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT).returncode
            except OSError as e:
                fail("cannot run %s: %s" % (step[0], e))
            if rc != 0:
                fail("build step failed (%s); log: %s" % (" ".join(step), log_path))
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["scale_points", "sim_validate", "serve_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        # subprocess.run kills and reaps the runner on timeout.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("runner exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
