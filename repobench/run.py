#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 repobench/run.py --workload touch_verify|browse|population \
        --seed N --seconds S --trace 0|1
    python3 repobench/run.py --selftest

Run from the repository root. The first call configures and builds the
libraries and the benchmark program in Release under .bench_build/; later calls
only re-run the (incremental) build. Build output goes to stderr, so
the last line of standard output is the program's JSON result. The
result is checked against the metric lists in BENCHMARK.json; the exit
code is non-zero when the build, a correctness gate or that check
fails. --selftest runs every workload at smoke size.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "repobench")
BINARY = os.path.join(BUILD, "repobench")
WORKLOADS = ("touch_verify", "browse", "population")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("repobench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no trust_flock sources next to the benchmark "
             "(expected src/CMakeLists.txt under " + ROOT + ")")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=False)
    done = subprocess.run(["cmake", "--build", BUILD, "--target",
                           "repobench", "-j", jobs],
                          stdout=sys.stderr, check=False)
    if done.returncode != 0 or not os.path.isfile(BINARY):
        fail("build failed")


def source_digest():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "repobench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "none"


def spec():
    """BENCHMARK.json, or None when it is missing."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def expected_metrics(trace):
    s = spec()
    if s is None:
        return None
    return {m["name"] for m in s["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace, smoke=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-dir", os.path.join(ROOT, ".bench_build", "traces"),
           "--source", source_digest(), "--commit", commit()]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(workload + ": no result within %d s" % RUN_TIMEOUT_S, 1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(workload + ": last output line is not a JSON result", 1)
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        fail(workload + ": metrics differ from BENCHMARK.json: " +
             str(sorted(set(result["metrics"]) ^ want)), 1)
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=(spec() or {}).get("run_seconds", 20),
                        help="op budget (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="smoke-size run of every workload's gate")
    args = parser.parse_args()
    os.chdir(ROOT)
    build()
    if args.selftest:
        codes = [run(w, args.seed, 1, trace, smoke=True)
                 for w in WORKLOADS for trace in (False, True)]
        sys.exit(0 if all(c == 0 for c in codes) else 1)
    if not args.workload:
        parser.error("--workload is required")
    sys.exit(run(args.workload, args.seed, args.seconds, args.trace == 1))


if __name__ == "__main__":
    main()
