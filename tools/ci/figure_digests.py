#!/usr/bin/env python3
"""Print one `name sha256` line per figure, table and extension bench.

Usage: figure_digests.py [--build-dir DIR] [--out FILE]

Runs every `fig*`, `table*` and `ext_*` bench under bench/ at quick scale
(no flags; `micro_sim` is a timing benchmark and is left out) and hashes
its stdout. Two trees that print the same list reproduce the paper's
figures byte for byte, so a refactor that claims to change no result can
be checked by diffing the lists made before and after it.

The benches whose runs are sharded across threads (THREAD_CHECKED) are
also run with --threads=1; their stdout must not depend on the worker
count, and the script exits 1 if it does.

Exits 1 if a bench is missing or exits nonzero.
"""

import argparse
import hashlib
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
PREFIXES = ("fig", "table", "ext_")
THREAD_CHECKED = ("fig09_homenet", "fig15_throughput_trace", "fig16_web_response")


def bench_names():
    return sorted(p.stem for p in (REPO / "bench").glob("*.cpp")
                  if p.stem.startswith(PREFIXES))


def run(binary, *args):
    proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=False)
    if proc.returncode != 0:
        sys.exit(f"{binary.name} {' '.join(args)} exited {proc.returncode}:\n"
                 f"{proc.stderr.decode(errors='replace')}")
    return proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=str(REPO / "build"),
                        help="CMake build tree holding bench/ (default: build)")
    parser.add_argument("--out", help="also write the list to this file")
    args = parser.parse_args()

    bench_dir = pathlib.Path(args.build_dir) / "bench"
    lines = []
    for name in bench_names():
        binary = bench_dir / name
        if not binary.is_file():
            sys.exit(f"missing bench binary {binary}")
        stdout = run(binary)
        if name in THREAD_CHECKED and run(binary, "--threads=1") != stdout:
            sys.exit(f"{name}: stdout differs between the default thread "
                     "count and --threads=1")
        lines.append(f"{name} {hashlib.sha256(stdout).hexdigest()}")

    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        pathlib.Path(args.out).write_text(text)


if __name__ == "__main__":
    main()
