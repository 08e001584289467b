#!/usr/bin/env python3
"""Fail CI when a perf benchmark regresses past a threshold.

Compares freshly emitted benchmark points (``BENCH_dht_nc.json``,
``BENCH_faults.json``, ...) against the committed baseline
(``benchmarks/BENCH_baseline.json``).  The primary metric of every point
is its *speedup* ratio (both sides measured in the same process on the
same host) because it is dimensionless — absolute seconds vary wildly
across CI runners, but both sides of the ratio move with the machine.

The baseline file maps benchmark names to points::

    {"schema_version": 3,
     "benchmarks": {"epoch_scheduler": {"speedup": ...},
                    "dht_network_centric": {"speedup": ...,
                                            "budgets": {
                                                "message_ratio": 1.8,
                                                "byte_ratio": 1.5}}}}

Each fresh file names its benchmark in its ``benchmark`` key and is
gated against the matching baseline entry.

Schema v3 adds optional per-point ``budgets``: hard ceilings on
additional fresh metrics (e.g. the network-centric DHT mode's
store/client message and byte ratios).  Unlike the speedup — a
machine-relative ratio gated with a tolerance — a budget is absolute:
the fresh metric must not exceed its ceiling at all.

Exit status 1 when any fresh speedup drops more than ``--threshold``
(default 20%) below its baseline, or any budgeted metric exceeds its
ceiling.

Usage:
    python benchmarks/check_regression.py BENCH_dht_nc.json \\
        BENCH_faults.json [--baseline benchmarks/BENCH_baseline.json] \\
        [--threshold 0.20]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_baseline.json"


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"check_regression: {path} does not exist")
    except json.JSONDecodeError as exc:
        sys.exit(f"check_regression: {path} is not valid JSON: {exc}")


def baseline_points(path: Path) -> Dict[str, dict]:
    """The committed baseline as {benchmark name: point}."""
    data = load_json(path)
    if "benchmarks" not in data:
        sys.exit(f"check_regression: {path} has no 'benchmarks' map")
    return dict(data["benchmarks"])


def check_point(fresh: dict, baseline: dict, threshold: float) -> bool:
    """Print the comparison; True when the fresh point passes."""
    name = fresh["benchmark"]
    try:
        fresh_speedup = float(fresh["speedup"])
        baseline_speedup = float(baseline["speedup"])
    except KeyError as exc:
        sys.exit(
            f"check_regression: missing key {exc} in a {name!r} point"
        )
    floor = baseline_speedup * (1.0 - threshold)
    drop = 1.0 - fresh_speedup / baseline_speedup
    print(
        f"{name}: fresh {fresh_speedup:.2f}x vs baseline "
        f"{baseline_speedup:.2f}x (drop {drop:+.1%}, tolerated "
        f"{threshold:.0%}, floor {floor:.2f}x)"
    )
    passed = True
    if fresh_speedup < floor:
        print(
            f"REGRESSION in {name}: fresh speedup fell below the tolerated "
            f"floor — either fix the slowdown or update "
            f"benchmarks/BENCH_baseline.json with a justification in the PR."
        )
        passed = False
    for metric, ceiling in sorted(baseline.get("budgets", {}).items()):
        value = fresh.get(metric)
        if value is None:
            print(
                f"REGRESSION in {name}: fresh point lacks budgeted "
                f"metric {metric!r} (ceiling {ceiling})"
            )
            passed = False
            continue
        print(
            f"{name}: {metric} {float(value):.2f} "
            f"(budget {float(ceiling):.2f})"
        )
        if float(value) > float(ceiling):
            print(
                f"REGRESSION in {name}: {metric} {float(value):.2f} "
                f"exceeds its budget ceiling {float(ceiling):.2f}"
            )
            passed = False
    return passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "fresh",
        type=Path,
        nargs="+",
        help="just-emitted benchmark point files (BENCH_*.json)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="committed baseline file (default: benchmarks/BENCH_baseline.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximum tolerated relative speedup drop (default 0.20)",
    )
    args = parser.parse_args(argv)

    baselines = baseline_points(args.baseline)
    failed = False
    for path in args.fresh:
        fresh = load_json(path)
        name = fresh.get("benchmark")
        if name is None:
            sys.exit(f"check_regression: {path} lacks a 'benchmark' key")
        baseline = baselines.get(name)
        if baseline is None:
            sys.exit(
                f"check_regression: no baseline for {name!r} in "
                f"{args.baseline}; known: {sorted(baselines)}"
            )
        if not check_point(fresh, baseline, args.threshold):
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
