"""Compare two ``--out`` files of the harness, metric by metric.

``python -m benchmarks.e2e.compare A.json B.json`` prints one row per
(workload, end-to-end metric) with both values, the ratio B/A (A is the
base) and the bound from ``BENCHMARK.json``, then compares every digest
and exact count of the repetitions both files hold.  It exits non-zero
if B is worse than A beyond a bound or an exact count differs.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

from benchmarks.e2e.harness import load_spec


def timed_metrics(out: Dict[str, object]) -> Dict[Tuple[str, str], float]:
    """``{(workload, metric): value}`` over the timed runs of one file."""
    return {
        (result["workload"], name): metric["value"]
        for result in out["results"]
        if not result["trace"]
        for name, metric in result["metrics"].items()
    }


def exact_records(out: Dict[str, object]) -> Dict[Tuple[str, int, bool], Dict]:
    """``{(workload, sub-seed, traced): digest and counts}`` of one file."""
    records = {}
    for result in out["results"]:
        for rep in result["reps"]:
            if rep.get("error"):
                continue
            key = (result["workload"], rep["sub_seed"], bool(rep["traced"]))
            records[key] = dict(rep["exact"], digest=rep["digest"])
    return records


def compare(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Print the comparison; returns the findings that fail it."""
    spec = {entry["name"]: entry for entry in load_spec()["end_to_end"]}
    findings = []
    values_a, values_b = timed_metrics(a), timed_metrics(b)
    print(f"{'workload':16s} {'metric':18s} {'A':>12s} {'B':>12s} {'B/A':>8s} {'bound':>6s}")
    for key in sorted(values_a.keys() & values_b.keys()):
        workload, name = key
        entry = spec[name]
        base, other = values_a[key], values_b[key]
        ratio = other / base
        worse = 1.0 - ratio if entry["better"] == "higher" else ratio - 1.0
        verdict = "WORSE" if worse > entry["bound"] else ""
        print(
            f"{workload:16s} {name:18s} {base:12.5g} {other:12.5g} "
            f"{ratio:8.3f} {entry['bound']:6.2f} {verdict}"
        )
        if verdict:
            findings.append(
                f"{workload} {name}: B is {worse:.1%} worse than A "
                f"(base {base:.5g}), bound {entry['bound']:.0%}"
            )
    records_a, records_b = exact_records(a), exact_records(b)
    shared = sorted(records_a.keys() & records_b.keys())
    for key in shared:
        differing = [
            f"{field} {records_a[key][field]!r} -> {records_b[key][field]!r}"
            for field in records_a[key]
            if records_a[key][field] != records_b[key].get(field)
        ]
        if differing:
            workload, sub_seed, traced = key
            findings.append(
                f"{workload} sub-seed {sub_seed}{' (traced)' if traced else ''}: "
                + "; ".join(differing)
            )
    print(f"exact counts and digests compared on {len(shared)} shared repetitions")
    return findings


def main(argv: List[str]) -> int:
    """Compare the two files named in ``argv``."""
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as file_a, open(argv[1]) as file_b:
        findings = compare(json.load(file_a), json.load(file_b))
    for finding in findings:
        print(f"FAILED: {finding}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
