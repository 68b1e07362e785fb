#!/usr/bin/env python3
"""Build and run the halfback end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) with CMake into the directory
named by CARGO_TARGET_DIR, or .bench_build, then runs one workload. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones. For a seed whose digest perfbench/spec.json
records, a different digest fails the run. Exits non-zero, without a
result, when the build fails, and non-zero with correct=false when the
output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build():
    """Configure once and bring the benchmark binary up to date; build
    output goes to stderr. Returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no halfback sources next to perfbench/ (src/ missing)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def load_spec():
    with open(os.path.join(BENCH_DIR, "spec.json")) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The final JSON object, or None when the output has none."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def note(lines, key):
    """Value of a '# key value' note line."""
    for line in lines:
        if line.startswith("# " + key + " "):
            return line[len(key) + 3:].split()[0]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        spec = load_spec()
        if args.workload not in spec["workloads"]:
            raise RuntimeError("unknown workload " + args.workload)
        binary = build()
    except (OSError, RuntimeError, ValueError, subprocess.CalledProcessError) as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 1

    extra = []
    digest = spec["digests"].get(args.workload, {}).get(str(args.seed))
    if digest:
        extra += ["--expect-digest", digest]
    if args.trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        extra += ["--spans", os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]

    try:
        code, lines = run_binary(binary, args.workload, args.seed, args.seconds, args.trace, extra)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    result = parse_result(lines)
    if result is None:
        print("\n".join(lines), file=sys.stderr)
        print("perfbench: the run printed no result (exit %d)" % code, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
