#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Usage, from the repository root:

    python3 perfbench/selftest.py [--workload NAME] [--seed N]

For each workload (default: all) it checks that
  - a same-seed rerun gives the same sim_digest;
  - a traced run gives the untraced run's digest and exact counts;
  - a different seed gives a different digest;
  - a deliberately altered flow record fails the output check;
and, once, that run.py exits non-zero without a result in a directory that
holds only BENCHMARK.json and perfbench/. Each run is one pass
(--seconds 0). Exits non-zero if any check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def check_workload(binary, workload, seed):
    failures = []

    def expect(ok, what):
        print("%-4s %s: %s" % ("ok" if ok else "FAIL", workload, what), flush=True)
        if not ok:
            failures.append(workload + ": " + what)

    code_a, first = bench.run_binary(binary, workload, seed, 0, 0)
    code_b, again = bench.run_binary(binary, workload, seed, 0, 0)
    digest = bench.note(first, "sim_digest")
    expect(code_a == 0 and code_b == 0 and digest is not None
           and digest == bench.note(again, "sim_digest"),
           "same-seed rerun gives the same sim_digest (%s)" % digest)

    code_t, traced = bench.run_binary(binary, workload, seed, 0, 1)
    expect(code_t == 0 and bench.note(traced, "sim_digest") == digest
           and bench.note(traced, "counts") == bench.note(first, "counts"),
           "traced run gives the untraced digest and exact counts")

    code_o, other = bench.run_binary(binary, workload, seed + 1, 0, 0)
    expect(code_o == 0 and bench.note(other, "sim_digest") not in (None, digest),
           "a different seed gives a different sim_digest")

    code_x, tampered = bench.run_binary(binary, workload, seed, 0, 0,
                                        ["--tamper", "--expect-digest", str(digest)])
    result = bench.parse_result(tampered)
    expect(code_x != 0 and result is not None and not result["correct"]
           and result["failed"] > 0,
           "an altered flow record fails the output check")
    return failures


def check_stripped_checkout():
    """run.py must fail, printing no result, where only the benchmark's own
    files exist."""
    stripped = os.path.join(bench.ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                            "selftest-stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(bench.BENCH_DIR, os.path.join(stripped, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), stripped)
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bufferbloat",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=stripped, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)
    shutil.rmtree(stripped, ignore_errors=True)
    ok = proc.returncode != 0 and bench.parse_result(proc.stdout.splitlines()) is None
    print("%-4s stripped checkout exits non-zero without a result" % ("ok" if ok else "FAIL"))
    return [] if ok else ["stripped checkout"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=bench.load_spec()["default_seed"])
    args = parser.parse_args()

    binary = bench.build()
    failures = []
    for workload in args.workload or list(bench.load_spec()["workloads"]):
        failures += check_workload(binary, workload, args.seed)
    failures += check_stripped_checkout()
    if failures:
        print("%d self-test(s) failed" % len(failures))
        return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
