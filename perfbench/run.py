#!/usr/bin/env python3
"""Builds the mfdft libraries (Release) and the perfbench binary, then runs
one workload and passes its output through; the last stdout line is the
result object.

    python3 perfbench/run.py --workload table1|fpva_campaign|daemon \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all     # every workload, one process each

Extra flags (--codesign-seed, --family-seed, --arrival-seed,
--write-reference) go to the binary unchanged. Build trees and trace files
live under .bench_build/perfbench/ in the checkout.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
LIB_BUILD = os.path.join(BUILD, "lib")
BENCH_BUILD = os.path.join(BUILD, "bench")
STATE = os.path.join(BUILD, "state")
WORKLOADS = ["table1", "fpva_campaign", "daemon"]
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures and builds both trees; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no mfdft sources at " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", LIB_BUILD,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DMFDFT_BUILD_TESTS=OFF", "-DMFDFT_BUILD_BENCH=OFF",
                      "-DMFDFT_BUILD_EXAMPLES=OFF"])
    steps.append(["cmake", "--build", LIB_BUILD, "-j", "4"])
    # Re-configured every time so the library list follows the build tree.
    steps.append(["cmake", "-S", HERE, "-B", BENCH_BUILD,
                  "-DCMAKE_BUILD_TYPE=Release",
                  "-DMFDFT_SOURCE_DIR=" + ROOT,
                  "-DMFDFT_BUILD_DIR=" + LIB_BUILD])
    steps.append(["cmake", "--build", BENCH_BUILD, "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(BENCH_BUILD, "perfbench")


def run_one(binary, workload, args, extra):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference-dir", os.path.join(HERE, "reference"),
           "--state-dir", STATE] + extra
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 3, None
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (RuntimeError, OSError) as error:
        log(str(error))
        return 2
    os.makedirs(STATE, exist_ok=True)

    if args.workload != "all":
        code, result = run_one(binary, args.workload, args, extra)
        if code == 0 and (result is None or not result.get("correct")):
            code = 1
        return code

    worst = 0
    for workload in WORKLOADS:
        log("workload " + workload)
        code, result = run_one(binary, workload, args, extra)
        if code == 0 and (result is None or not result.get("correct")):
            code = 1
        worst = max(worst, code)
        if result is not None:
            for name, metric in result["metrics"].items():
                log("  %s %s = %.6g %s" % (workload, name, metric["value"],
                                           metric["unit"]))
            log("  %s error_rate = %d/%d" % (workload, result["failed"],
                                             result["attempted"]))
    return worst


if __name__ == "__main__":
    sys.exit(main())
