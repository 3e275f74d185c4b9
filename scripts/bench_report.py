#!/usr/bin/env python3
"""Run a google-benchmark binary under a pinned config and emit a
schema-versioned report (expert.bench.v1).

The report is the stable interface between a benchmark run and the
regression gate (scripts/bench_compare.py): every time is normalized to
nanoseconds, each benchmark is reduced to the median over a fixed number
of repetitions, and entries are sorted by name so the JSON diffs cleanly.
Complexity-fit pseudo-entries (_BigO / _RMS) are dropped — they are
derived values, not measurements.

The report's `provenance` block says what was measured: the project's
CMAKE_BUILD_TYPE and compiler, read from the CMakeCache.txt of the build
tree that holds the binary, the source tree's git commit, and the number
of CPUs this process may run on. (google-benchmark's own
`library_build_type` in `context` describes the benchmark library, not
the project.)

Usage:
  bench_report.py --binary build/bench/runtime_expert \
      --out bench/BENCH_expert.json [--repetitions 3] [--min-time 0.1] \
      [--filter REGEX]
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tempfile

SCHEMA = "expert.bench.v1"

_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def run_binary(binary, repetitions, min_time, bench_filter):
    """Run the benchmark binary once, returning google-benchmark's JSON."""
    with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
        cmd = [
            binary,
            "--benchmark_out=%s" % tmp.name,
            "--benchmark_out_format=json",
            "--benchmark_repetitions=%d" % repetitions,
            "--benchmark_min_time=%g" % min_time,
        ]
        if bench_filter:
            cmd.append("--benchmark_filter=%s" % bench_filter)
        subprocess.run(cmd, check=True, stdout=sys.stderr)
        tmp.seek(0)
        return json.load(tmp)


def reduce_benchmarks(raw, repetitions):
    """Reduce google-benchmark entries to one median record per benchmark."""
    records = {}
    for entry in raw.get("benchmarks", []):
        run_name = entry.get("run_name", entry["name"])
        if run_name.endswith("_BigO") or run_name.endswith("_RMS"):
            continue
        if repetitions > 1:
            # With repetitions, google-benchmark appends aggregate rows;
            # the median row is the one the gate compares against.
            if entry.get("run_type") != "aggregate":
                continue
            if entry.get("aggregate_name") != "median":
                continue
        elif entry.get("run_type") == "aggregate":
            continue
        scale = _TO_NS[entry["time_unit"]]
        record = {
            "name": run_name,
            "iterations": entry.get("iterations", 0),
            "real_ns": entry["real_time"] * scale,
            "cpu_ns": entry["cpu_time"] * scale,
        }
        counters = {
            k: v
            for k, v in entry.items()
            if k.startswith("cache_") and isinstance(v, (int, float))
        }
        if counters:
            record["counters"] = counters
        if run_name in records:
            raise SystemExit("duplicate benchmark entry: %s" % run_name)
        records[run_name] = record
    return [records[name] for name in sorted(records)]


def find_cmake_cache(binary):
    """The CMakeCache.txt of the build tree holding `binary`, or None."""
    directory = os.path.dirname(os.path.abspath(binary))
    while True:
        cache = os.path.join(directory, "CMakeCache.txt")
        if os.path.isfile(cache):
            return cache
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent


def read_cmake_cache(path):
    """Map of the cache's NAME:TYPE=VALUE entries, keyed by NAME."""
    entries = {}
    with open(path) as f:
        for line in f:
            match = re.match(r"^([\w.-]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if match:
                entries[match.group(1)] = match.group(2)
    return entries


def compiler_of(build_dir, cache):
    """'<id> <version> (<path>)' from CMake's record of the C++ compiler."""
    record = {}
    pattern = os.path.join(build_dir, "CMakeFiles", "*",
                           "CMakeCXXCompiler.cmake")
    for path in sorted(glob.glob(pattern))[:1]:
        with open(path) as f:
            for line in f:
                match = re.match(
                    r'^set\(CMAKE_CXX_COMPILER_(ID|VERSION) "(.*)"\)$',
                    line.strip())
                if match:
                    record[match.group(1)] = match.group(2)
    described = " ".join(
        v for v in (record.get("ID"), record.get("VERSION")) if v)
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    if described and compiler:
        return "%s (%s)" % (described, compiler)
    return described or compiler or None


def git_commit(source_dir):
    """HEAD of the source tree, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", source_dir, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def provenance(binary):
    """What was measured: project build type, compiler, commit, CPUs."""
    cache_path = find_cmake_cache(binary)
    if cache_path is None:
        raise SystemExit("%s: no CMakeCache.txt above the binary; cannot "
                         "record the project build type" % binary)
    cache = read_cmake_cache(cache_path)
    source_dir = cache.get("CMAKE_HOME_DIRECTORY",
                           os.path.dirname(cache_path))
    return {
        "build_type": cache.get("CMAKE_BUILD_TYPE") or None,
        "compiler": compiler_of(os.path.dirname(cache_path), cache),
        "commit": git_commit(source_dir),
        "num_cpus": len(os.sched_getaffinity(0)),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True,
                        help="google-benchmark binary to run")
    parser.add_argument("--out", required=True, help="report JSON path")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="repetitions per benchmark; the median is "
                             "reported (default 3)")
    parser.add_argument("--min-time", type=float, default=0.1,
                        help="--benchmark_min_time seconds (default 0.1)")
    parser.add_argument("--filter", default="",
                        help="--benchmark_filter regex (default: all)")
    args = parser.parse_args()

    build = provenance(args.binary)
    raw = run_binary(args.binary, args.repetitions, args.min_time,
                     args.filter)
    benchmarks = reduce_benchmarks(raw, args.repetitions)
    if not benchmarks:
        raise SystemExit("benchmark run produced no entries")

    context = raw.get("context", {})
    report = {
        "schema": SCHEMA,
        "config": {
            "repetitions": args.repetitions,
            "min_time_s": args.min_time,
            "filter": args.filter,
            "aggregate": "median",
        },
        "provenance": build,
        "context": {
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "library_build_type": context.get("library_build_type"),
        },
        "benchmarks": benchmarks,
    }
    with open(args.out, "w") as out:
        json.dump(report, out, indent=2)
        out.write("\n")
    print("wrote %d benchmark medians to %s" % (len(benchmarks), args.out),
          file=sys.stderr)


if __name__ == "__main__":
    main()
