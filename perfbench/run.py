#!/usr/bin/env python3
"""Builds and runs the Hibernator simulator benchmark.

    python3 perfbench/run.py --workload oltp-day --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                      # every workload, untraced then traced

Run from the repository root (or anywhere: paths are taken from this file).
The first call configures and builds perfbench/ with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench under the
repository root); later calls only rebuild what changed.  Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.

With one --workload, the exit code is the benchmark's: 0 when every output
check passed.  With --workload all, each workload runs untraced and traced,
the metric tables are printed, and the exit code is non-zero if any check
failed in any run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["oltp-day", "cello-compare", "fleet"]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no simulator sources at %s; run from a full checkout" % (ROOT / "src"))
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "hib_perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))
    return out / "hib_perfbench"


def source_id():
    """The git commit when this is a git checkout, else a digest of the sources."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src",
                                    "perfbench"], capture_output=True, text=True).stdout.strip()
            return "git:" + done.stdout.strip() + ("+dirty" if dirty else "")
    digest = hashlib.sha256()
    for d in ("src", "perfbench"):
        for path in sorted((ROOT / d).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_all(binary, args, extra):
    failures = 0
    summary = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", trace] + extra
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1]) if lines else {"correct": False, "failed": 1}
            if done.returncode != 0 or not result.get("correct"):
                failures += 1
            for name, metric in result.get("metrics", {}).items():
                summary[workload + "." + name] = metric
    print(json.dumps({"correct": failures == 0, "failed_runs": failures, "metrics": summary}))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--hours", type=float, help="override the simulated horizon")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="perturb the traced results (self-test of the checks)")
    args = parser.parse_args()

    binary = build()
    extra = ["--source-id", source_id()]
    if args.hours is not None:
        extra += ["--hours", str(args.hours)]
    if args.inject_mismatch:
        extra.append("--inject-mismatch")
    sys.stdout.flush()
    if args.workload == "all":
        return run_all(binary, args, extra)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace] + extra
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
