"""Smoke test of the end-to-end benchmark harness.

Runs all five workloads at about 1/16 scale, timed and traced, through
the same command the benchmark uses, and checks what the full run
checks: the outputs (digests pinned in ``expected.json``, timed against
traced, every transaction decided everywhere, durable reopen, one crash
and one recovery on the DHT), that exactly the metrics ``BENCHMARK.json``
names are printed, each with its unit, and that the per-layer self times
sum to the end-to-end clock.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return done, json.loads(out.read_text()) if out.exists() else None


def test_smoke_run_passes_every_output_check(smoke_run):
    done, out = smoke_run
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert [(r["workload"], r["trace"]) for r in out["results"]] == [
        (name, trace) for name in WORKLOADS for trace in (0, 1)
    ]
    for result in out["results"]:
        assert result["correct"] and not result["problems"], result["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1


def test_exactly_the_named_metrics_are_printed_with_units(smoke_run):
    _done, out = smoke_run
    for result in out["results"]:
        named = SPEC["per_layer" if result["trace"] else "end_to_end"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            entry["name"]: entry["unit"] for entry in named
        }
        if not result["trace"]:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_last_line_of_a_single_run_is_the_result_object():
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--smoke",
            "--workload", "eval-conflict", "--seed", "3", "--seconds", "1",
            "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}


def test_self_times_sum_to_the_clock_and_spans_are_written(smoke_run):
    _done, out = smoke_run
    assert set(out["spans"]) == set(WORKLOADS)
    for result in out["results"]:
        if not result["trace"] or result["workload"] == "wan-async":
            continue
        for rep in result["reps"]:
            if rep["traced"]:
                # The clocked calls are the root spans, and self times sum
                # to their roots by construction; the clock is read outside
                # the wrappers.
                assert rep["clocked_root_s"] == pytest.approx(
                    rep["raw_clock_s"], rel=0.02
                )
