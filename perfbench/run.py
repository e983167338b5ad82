#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --update-expected

Run from the repository root. The benchmark program is built from the
sources in the checkout into .bench_build/perfbench (CMake, Ninja when
available); the last line of standard output is its JSON
result. --update-expected rewrites perfbench/expected_rows.txt, the
committed rows digests of seeds 0-31 each run is checked against.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-scratch")
EXPECTED = os.path.join(HERE, "expected_rows.txt")
WORKLOADS = ("paper_ipc", "recovery_checked", "litmus_faults",
             "service_sliced")
DIGEST_SEEDS = range(32)


def build():
    """Configure (once) and build the program; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "grid.hh")):
        sys.exit("perfbench: no repository sources next to the benchmark")
    if not any(os.path.isfile(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def update_expected(binary):
    lines = ["# workload seed rows-digest (FNV-1a 64 over the rows of one",
             "# pass); regenerate: python3 perfbench/run.py "
             "--update-expected"]
    for workload in WORKLOADS:
        for seed in DIGEST_SEEDS:
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "0", "--scratch", SCRATCH,
                 "--digest-only"],
                stdout=subprocess.PIPE, text=True, check=True)
            lines.append(out.stdout.strip().splitlines()[-1])
            print(lines[-1], file=sys.stderr)
    with open(EXPECTED, "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--update-expected", action="store_true")
    args = ap.parse_args()
    if not args.update_expected and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if args.update_expected:
        update_expected(binary)
        return 0
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", SCRATCH, "--expected", EXPECTED]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
