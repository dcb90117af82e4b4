#!/usr/bin/env python3
"""Builds and runs the end-to-end dataplane benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds the library (from src/) and the
driver (perfbench/src/) into the directory named by CARGO_TARGET_DIR, or
.bench_build when it is unset; later calls only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the driver's
JSON result.  --selftest runs every workload briefly with one corrupted
and one withheld output and exits 0 only if each run reports exactly
those two failed operations.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = [
    "calc4_stream_96B",
    "router_zipf_imix",
    "apps8_batched_churn",
    "netchain_3hop_egress",
]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the driver; returns its path or exits non-zero."""
    if not os.path.isfile(os.path.join(ROOT, "src", "dataplane", "dataplane.hpp")):
        sys.stderr.write("perfbench: library sources (src/) not found next to "
                         "perfbench/; run from a full checkout\n")
        sys.exit(2)
    out = build_dir()
    binary = os.path.join(out, "menshen_perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.stderr.write("perfbench: build step failed: %s\n" % e)
            sys.exit(2)
        if res.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)
    if not os.path.isfile(binary):
        sys.stderr.write("perfbench: driver binary missing after build\n")
        sys.exit(2)
    return binary


def run_driver(binary, args):
    """Runs the driver; returns (exit code, last stdout line)."""
    try:
        res = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                             stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                             text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver timed out\n")
        return 3, ""
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    return res.returncode, (lines[-1] if lines else "")


def selftest(binary):
    ok = True
    for w in WORKLOADS:
        code, line = run_driver(binary, [
            "--workload", w, "--seed", "7", "--seconds", "1", "--trace", "0",
            "--inject-faults", "1", "--out-dir", ".bench_out/selftest"])
        try:
            r = json.loads(line)
        except ValueError:
            r = None
        good = r is not None and r["failed"] == 2 and r["correct"]
        sys.stderr.write("selftest %-22s %s (exit %d, failed=%s)\n" % (
            w, "ok" if good else "FAILED", code,
            None if r is None else r["failed"]))
        ok = ok and good
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    binary = build()
    if a.selftest:
        return selftest(binary)
    code, line = run_driver(binary, [
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", repr(a.seconds), "--trace", str(a.trace)])
    if line:
        print(line)
    if code != 0 or not line:
        sys.stderr.write("perfbench: driver exited with %d\n" % code)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
