#!/usr/bin/env python3
"""Serving benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload qa-async-durable --seed 1 --seconds 30 --trace 0

Builds the benchmark driver (perfbench/CMakeLists.txt, a Release build of the
serving libraries plus the driver) into .bench_build/perfbench, runs it, checks
that its report names exactly the metrics BENCHMARK.json declares, and relays
the report. The last line of standard output is the JSON report; the exit code
is 0 only when a report was produced. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "docs_perfbench")
# A driver run longer than this is killed and reported as a failure.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, log_path=None):
    """Runs cmd to completion (killing it on timeout); returns its exit code
    and captured stdout."""
    out = open(log_path, "w") if log_path else subprocess.PIPE
    proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT
                            if log_path else None, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    finally:
        if log_path:
            out.close()
    return proc.returncode, stdout


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no program sources under ./src; run from a source checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    log = os.path.join(BUILD_DIR, "build.log")
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "docs_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        code, _ = run_checked(step, BUILD_TIMEOUT_S, log)
        if code != 0:
            with open(log) as f:
                sys.stderr.write(f.read()[-4000:])
            fail("build step failed: " + " ".join(step))


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    expected = declared_metrics(args.trace == 1)
    code, stdout = run_checked(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        RUN_TIMEOUT_S)
    if code != 0:
        sys.stderr.write(stdout)
        fail("driver exited with code %d" % code)
    lines = stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(stdout)
        fail("driver printed no report")

    # The report must carry exactly the declared metrics, with their units.
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "undeclared %s, unit mismatch %s" % (missing, extra, wrong),
              file=sys.stderr)
        report["correct"] = False
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
