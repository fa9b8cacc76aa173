#!/usr/bin/env python3
"""Build and run the pstap benchmark.

    python3 perfbench/run.py --workload embedded --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Configures and builds perfbench/ (which compiles the library from ../src)
into .bench_build/perfbench at the repository root, runs the benchmark
binary there and relays its output. The last line of standard output is
the result object {"correct", "attempted", "failed", "metrics"}.

Exit status: the binary's (0 correct, 1 a CPI failed the oracle check),
or 1 without a result line when the build or the run cannot complete.
"""
import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-run"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j4", "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            raise ValueError(f"malformed metric {name}: {metric}")


def run(args):
    if not build("perfbench"):
        return 1
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", str(WORK)]
    # A new process group, so a timeout can stop the binary together with
    # the child process it forks for each run() call.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        for data in WORK.glob("pfs-*"):
            shutil.rmtree(data, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        log(f"benchmark failed with exit code {proc.returncode}")
        return 1
    try:
        check_result(lines[-1])
    except ValueError as err:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"malformed result line: {err}")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


def selftest():
    if not build("perfbench_selftest"):
        return 1
    return subprocess.run(["ctest", "--test-dir", str(BUILD), "--output-on-failure"],
                          stdout=sys.stderr).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["embedded", "separate", "io_bound"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
