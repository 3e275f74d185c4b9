#!/usr/bin/env python3
"""Build the ExPERT benchmark program from source and run one workload.

    python3 perfbench/run.py --workload plan|execute|service \
        --seed N --seconds S --trace 0|1

Run it from a checkout of the repository. The first run configures and
builds a Release tree in .bench_build/ at the checkout root; later runs
only re-check it. Build output goes to stderr. The program's stdout passes
through unchanged: a human-readable report, a provenance line, and as the
last line the result JSON. Records and Chrome traces land in
.bench_build/results/, service journals in .bench_build/state/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "expert_perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "expert_perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the sources the benchmark is built from, so records of two
    checkouts without git metadata can still be told apart."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, d) for d in ("include", "src")] + [BENCH_DIR]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in filenames]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["plan", "execute", "service"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    try:
        build()
        digest = source_digest()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    argv = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", args.trace,
            "--out-dir", os.path.join(BUILD_DIR, "results"),
            "--state-dir", os.path.join(BUILD_DIR, "state"),
            "--commit", commit(), "--source-digest", digest]
    return subprocess.run(argv).returncode


if __name__ == "__main__":
    sys.exit(main())
