#!/usr/bin/env python3
"""Diff an expert.bench.v1 report against a committed baseline and gate on
regressions.

For every benchmark in the baseline the candidate must (a) still exist and
(b) not have slowed down past --fail-ratio on the compared metric
(wall-clock real_ns by default — several benchmarks run the sweep through
a thread pool, where cpu_ns only counts the calling thread). Ratios
between --warn-ratio and --fail-ratio are reported but do not fail;
speedups and brand-new benchmarks are noted. Exit status: 0 clean,
1 regression or missing benchmark, 2 usage/schema error — including two
reports whose project build types (`provenance.build_type`, recorded by
bench_report.py) differ, since a Debug and a Release run of the same code
differ by more than any regression the gate looks for.

Thresholds are noise-aware, not exact: the baseline is a median-of-N from
one machine, so CI runs on different hardware should pass a generous
--fail-ratio (see .github/workflows/ci.yml) while local runs on the
baseline machine can use the tighter default.
"""

import argparse
import json
import sys

SCHEMA = "expert.bench.v1"


def usage_error(message):
    print("error: %s" % message, file=sys.stderr)
    sys.exit(2)


def load_report(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        usage_error("cannot read %s: %s" % (path, e))
    if report.get("schema") != SCHEMA:
        usage_error("%s: expected schema %s, got %r"
                    % (path, SCHEMA, report.get("schema")))
    return report


def build_type(report):
    return (report.get("provenance") or {}).get("build_type")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline report")
    parser.add_argument("candidate", help="freshly generated report")
    parser.add_argument("--metric", default="real_ns",
                        choices=["real_ns", "cpu_ns"],
                        help="time field to compare (default real_ns)")
    parser.add_argument("--warn-ratio", type=float, default=1.15,
                        help="candidate/baseline ratio that draws a "
                             "warning (default 1.15)")
    parser.add_argument("--fail-ratio", type=float, default=1.6,
                        help="ratio that fails the gate (default 1.6)")
    args = parser.parse_args()
    if not args.warn_ratio <= args.fail_ratio:
        usage_error("--warn-ratio must not exceed --fail-ratio")

    baseline_report = load_report(args.baseline)
    candidate_report = load_report(args.candidate)
    if build_type(baseline_report) != build_type(candidate_report):
        usage_error("project build types differ: baseline %r, candidate %r"
                    % (build_type(baseline_report),
                       build_type(candidate_report)))
    baseline = {b["name"]: b for b in baseline_report["benchmarks"]}
    candidate = {b["name"]: b for b in candidate_report["benchmarks"]}

    regressions, warnings, notes = [], [], []
    rows = []
    for name in sorted(baseline):
        base = baseline[name][args.metric]
        if name not in candidate:
            regressions.append("%s: missing from candidate report" % name)
            rows.append((name, base, None, None, "MISSING"))
            continue
        cand = candidate[name][args.metric]
        ratio = cand / base if base > 0 else float("inf")
        if ratio >= args.fail_ratio:
            verdict = "FAIL"
            regressions.append("%s: %.2fx slower (%.0f -> %.0f ns)"
                               % (name, ratio, base, cand))
        elif ratio >= args.warn_ratio:
            verdict = "warn"
            warnings.append("%s: %.2fx slower" % (name, ratio))
        elif ratio <= 1.0 / args.warn_ratio:
            verdict = "faster"
        else:
            verdict = "ok"
        rows.append((name, base, cand, ratio, verdict))
    for name in sorted(set(candidate) - set(baseline)):
        notes.append("%s: new benchmark (not in baseline)" % name)

    width = max(len(r[0]) for r in rows) if rows else 4
    print("%-*s %14s %14s %7s  %s"
          % (width, "benchmark", "base [ns]", "cand [ns]", "ratio",
             "verdict"))
    for name, base, cand, ratio, verdict in rows:
        if cand is None:
            print("%-*s %14.0f %14s %7s  %s"
                  % (width, name, base, "-", "-", verdict))
        else:
            print("%-*s %14.0f %14.0f %6.2fx  %s"
                  % (width, name, base, cand, ratio, verdict))

    for note in notes:
        print("note: %s" % note)
    for warning in warnings:
        print("warning: %s" % warning)
    for regression in regressions:
        print("REGRESSION: %s" % regression)
    print("compared %d benchmarks on %s: %d regression(s), %d warning(s)"
          % (len(rows), args.metric, len(regressions), len(warnings)))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
