#!/usr/bin/env python3
"""Self-test for the bench_compare.py regression gate.

Proves the gate actually catches what it claims to catch, using the
committed baseline as input:

1. An unmodified copy of the baseline must compare clean (exit 0).
2. A copy with one benchmark's times doubled must fail (exit nonzero) and
   flag exactly that benchmark — no more, no fewer.
3. A copy with one benchmark deleted must fail and report it as missing.
4. A copy whose project build type differs must be refused as a usage
   error (exit 2), whatever its times say.

Usage: bench_compare_selftest.py <bench_compare.py> <BENCH_expert.json>
"""

import copy
import json
import re
import subprocess
import sys
import tempfile


def run_compare(compare, baseline_path, candidate, extra=()):
    with tempfile.NamedTemporaryFile("w", suffix=".json") as tmp:
        json.dump(candidate, tmp)
        tmp.flush()
        proc = subprocess.run(
            [sys.executable, compare, baseline_path, tmp.name, *extra],
            capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    compare, baseline_path = sys.argv[1], sys.argv[2]
    with open(baseline_path) as f:
        baseline = json.load(f)
    names = [b["name"] for b in baseline["benchmarks"]]
    assert len(names) >= 2, "baseline too small to exercise the gate"

    # 1. Identical report: clean pass.
    rc, out = run_compare(compare, baseline_path, baseline)
    assert rc == 0, "unmodified copy failed the gate:\n%s" % out

    # 2. Double one benchmark's time: that one — and only that one — must
    # be flagged, well past the default fail ratio.
    victim = names[len(names) // 2]
    slowed = copy.deepcopy(baseline)
    for bench in slowed["benchmarks"]:
        if bench["name"] == victim:
            bench["real_ns"] *= 2.0
            bench["cpu_ns"] *= 2.0
    rc, out = run_compare(compare, baseline_path, slowed)
    assert rc != 0, "2x slowdown on %s passed the gate:\n%s" % (victim, out)
    flagged = re.findall(r"^REGRESSION: (\S+):", out, flags=re.MULTILINE)
    assert flagged == [victim], (
        "expected exactly [%s] flagged, got %s:\n%s" % (victim, flagged, out))

    # 3. Drop a benchmark: the gate must notice the hole.
    dropped = copy.deepcopy(baseline)
    dropped["benchmarks"] = [
        b for b in dropped["benchmarks"] if b["name"] != victim]
    rc, out = run_compare(compare, baseline_path, dropped)
    assert rc != 0, "missing benchmark passed the gate:\n%s" % out
    assert "missing from candidate" in out, out

    # 4. Same times, different project build type: not comparable.
    other_type = copy.deepcopy(baseline)
    recorded = (baseline.get("provenance") or {}).get("build_type")
    other_type.setdefault("provenance", {})["build_type"] = (
        "Debug" if recorded != "Debug" else "Release")
    rc, out = run_compare(compare, baseline_path, other_type)
    assert rc == 2, "mismatched build type exited %d:\n%s" % (rc, out)
    assert "build types differ" in out, out

    print("bench_compare self-test passed (victim: %s)" % victim)


if __name__ == "__main__":
    main()
