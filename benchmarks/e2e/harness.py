"""The benchmark harness: repetitions in child processes, metrics by name.

One invocation measures each requested workload for ``--seconds``: it
starts one fresh child process per repetition (:mod:`.rep`), one at a
time, each on the next sub-seed of ``--seed``, until the time is used;
then it pools the repetitions into the metrics ``BENCHMARK.json`` names,
checks the outputs, prints every metric with its unit, and prints one
JSON result line.  ``--trace 0`` is the timed run (end-to-end metrics,
no wrappers), ``--trace 1`` the traced run (per-layer metrics; every
traced repetition is paired with a timed one of the same sub-seed, so
the two can be compared and the tracing overhead taken).  Without
``--trace`` both are run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"
WORK_ROOT = ROOT / ".bench_work"
DEFAULT_SEED = 7

#: On the workloads the harness drives step by step (all but wan-async)
#: the per-layer self times must sum to the end-to-end clock this closely.
SELF_TIME_TOLERANCE = 0.02

#: Set-up is timed at least this often per timed run: where few
#: repetitions fit, extra children set up and stop before the schedule.
MIN_SETUPS = 7


def load_spec() -> Dict[str, object]:
    """``BENCHMARK.json``: the workloads and the metric names and units."""
    return json.loads(SPEC_PATH.read_text())


def spawn_rep(
    workload: str,
    sub_seed: int,
    traced: bool,
    smoke: bool,
    verify: bool,
    workdir: Path,
    spans_out: Optional[Path] = None,
    setup_only: bool = False,
) -> Dict[str, object]:
    """Run one repetition in a fresh child process; returns its result.

    ``perf_counter`` is the system-wide monotonic clock, so the child can
    take its set-up time from the moment recorded here.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    command = [
        sys.executable, "-m", "benchmarks.e2e.rep",
        "--workload", workload,
        "--sub-seed", str(sub_seed),
        "--traced", str(int(traced)),
        "--smoke", str(int(smoke)),
        "--verify", str(int(verify)),
        "--setup-only", str(int(setup_only)),
        "--workdir", str(workdir),
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    command += ["--spawned-at", repr(perf_counter())]
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=170
        )
    except subprocess.TimeoutExpired:
        return _lost(workload, sub_seed, traced, "repetition timed out")
    if done.returncode != 0 or not done.stdout.strip():
        return _lost(workload, sub_seed, traced, done.stderr.strip()[-400:].split("\n")[-1])
    return json.loads(done.stdout.strip().splitlines()[-1])


def _lost(workload: str, sub_seed: int, traced: bool, why: str) -> Dict[str, object]:
    return {
        "workload": workload, "sub_seed": sub_seed, "traced": traced,
        "error": why or "child exited without a result",
        "attempted": 1, "failed": 1,
    }


# ----------------------------------------------------------------------
# Pooling repetitions into metrics


def percentile(samples: List[float], share: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def end_to_end(
    reps: List[Dict[str, object]], extra_setups: List[float]
) -> Dict[str, float]:
    """The end-to-end metrics of a timed run.

    Times pool every repetition (ratio of totals, median of all samples);
    counts come from repetition 0 alone, whose inputs are the same in
    every run of a seed however many repetitions fit.
    """
    first = reps[0]["exact"]
    return {
        "txn_per_s": sum(r["exact"]["published"] for r in reps)
        / sum(r["clock_s"] for r in reps),
        "reconcile_p50_ms": statistics.median(
            [ms for r in reps for ms in r["reconcile_ms"]]
        ),
        "publish_p50_ms": statistics.median(
            [ms for r in reps for ms in r["publish_ms"]]
        ),
        "msgs_per_txn": first["messages"] / first["published"],
        "peak_rss_mb": statistics.median([r["rss_mb"] for r in reps]),
        "setup_s": statistics.median([r["setup_s"] for r in reps] + extra_setups),
    }


def per_layer(
    timed: List[Dict[str, object]], traced: List[Dict[str, object]]
) -> Dict[str, float]:
    """The per-layer metrics of a traced run (paired with ``timed``)."""

    def layer(name: str, field: str = "self_s") -> float:
        """Mean seconds per schedule, at reference speed."""
        return statistics.fmean(
            r["layers"].get(name, {}).get(field, 0.0) * r["speed"] for r in traced
        )

    def calls(*names: str) -> int:
        return sum(int(traced[0]["layers"].get(n, {}).get("calls", 0)) for n in names)

    def rate(hits: float, total: float) -> float:
        return hits / total if total else 0.0

    first, exact = traced[0], traced[0]["exact"]
    counts = first["traced_counts"]
    durable = first.get("durable", {})
    reconciles = [ms for r in traced for ms in r["reconcile_ms"]]
    wall = sum(r["extra"].get("wall_s", 0.0) for r in traced)
    metrics = {
        "workload.generate_s": layer("workload.generate", "total_s"),
        "workload.generate_calls": calls("workload.generate"),
        "cdss.execute_s": layer("cdss.execute"),
        "cdss.publish_s": layer("cdss.publish"),
        "cdss.reconcile_s": layer("cdss.reconcile"),
        "cdss.store_calls": calls("store.publish", "store.batch", "store.complete"),
        "cdss.reconcile_p90_ms": percentile(reconciles, 0.90),
        "cdss.reconcile_p99_ms": (
            percentile(reconciles, 0.99) if len(reconciles) >= 1000 else 0.0
        ),
        "core.session_s": layer("core.session"),
        "core.session_calls": calls("core.session"),
        "core.local_s": statistics.fmean(r["local_s"] * r["speed"] for r in traced),
        "core.accepted": exact["accepted"],
        "core.rejected": exact["rejected"],
        "core.deferred": exact["deferred"],
        "core.cache_hit_rate": rate(
            exact["cache_hits"], exact["cache_hits"] + exact["cache_misses"]
        ),
        "core.pair_hit_rate": rate(
            exact["pair_hits"], exact["pair_hits"] + exact["pair_misses"]
        ),
        "core.revalidations": exact["revalidations"],
        "instance.apply_s": layer("instance.apply"),
        "instance.apply_calls": calls("instance.apply"),
        "instance.check_s": layer("instance.check"),
        "instance.check_calls": calls("instance.check"),
        "instance.check_pass_rate": rate(
            counts.get("instance.check_passed", 0), calls("instance.check")
        ),
        "store.publish_s": layer("store.publish"),
        "store.publish_calls": calls("store.publish"),
        "store.batch_s": layer("store.batch"),
        "store.batch_calls": calls("store.batch"),
        "store.complete_s": layer("store.complete"),
        "store.complete_calls": calls("store.complete"),
        "store.batch_txns": counts.get("store.batch_txns", 0),
        "store.messages": exact["messages"],
        "store.charged_s": first["charged_s"],
        "store.durable.cache_hits": durable.get("cache_hits", 0),
        "store.durable.cache_misses": durable.get("cache_misses", 0),
        "store.durable.cache_hit_rate": rate(
            durable.get("cache_hits", 0),
            durable.get("cache_hits", 0) + durable.get("cache_misses", 0),
        ),
        "store.durable.evictions": durable.get("evictions", 0),
        "store.durable.peak_resident": durable.get("peak_resident", 0),
        "store.durable.db_bytes_per_txn": rate(
            durable.get("db_bytes", 0), exact["published"]
        ),
        "store.durable.retired_extensions": durable.get("retired_extensions", 0),
        "store.durable.reopen_s": statistics.fmean(
            r.get("durable", {}).get("reopen_s", 0.0) * r["speed"] for r in traced
        ),
        "store.dht.handler_s": layer("store.dht.handler"),
        "store.dht.handler_calls": calls("store.dht.handler"),
        "net.deliver_s": layer("net.deliver"),
        "net.messages": exact["net_messages"],
        "net.bytes": exact["wire_bytes"],
        "net.wire_bytes_per_txn": exact["wire_bytes"] / exact["published"],
        "net.retries": exact["retries"],
        "net.faults_injected": exact["faults_injected"],
        "net.recoveries": exact["recoveries"],
        "net.degraded": exact["degraded"],
        "confed.run_s": layer("confed.run"),
        "confed.overlap_ratio": rate(sum(r["charged_s"] for r in traced), wall),
        "confed.hook_emit_s": layer("confed.hook_emit"),
        "confed.hook_events": calls("confed.hook_emit"),
        "confed.finish_epoch_s": layer("confed.finish_epoch"),
        "runtime.gc_s": layer("runtime.gc", "total_s"),
        "runtime.gc_gen2": timed[0]["gc_gen2"],
        "runtime.decay_ratio": statistics.median(r["decay_ratio"] for r in timed),
        "runtime.speed": statistics.fmean(r["speed"] for r in timed),
        "trace.overhead": sum(r["clock_s"] for r in traced)
        / sum(r["clock_s"] for r in timed)
        - 1.0,
    }
    for key, value in exact.items():
        if key.startswith("bytes."):
            metrics[f"net.{key}"] = value
    return metrics


# ----------------------------------------------------------------------
# Output checks


def check_reps(
    workload: str,
    driven_by_harness: bool,
    timed: List[Dict[str, object]],
    traced: List[Dict[str, object]],
    expected: Dict[str, Dict[str, object]],
) -> List[str]:
    """Every failed output check, as one line each (empty: all passed)."""
    problems = []
    for rep in timed + traced:
        label = f"{workload} sub-seed {rep['sub_seed']}" + (
            " (traced)" if rep["traced"] else ""
        )
        if rep["error"]:
            problems.append(f"{label}: {rep['error']}")
            continue
        problems += [
            f"{label}: check {name} failed"
            for name, passed in rep["checks"].items()
            if not passed
        ]
        pinned = expected.get(str(rep["sub_seed"]))
        if pinned is not None:
            problems += [
                f"{label}: {key} is {rep_value!r}, expected.json pins {pinned[key]!r}"
                for key, rep_value in (
                    ("digest", rep["digest"]),
                    ("state_ratio", rep["state_ratio"]),
                    ("published", rep["exact"]["published"]),
                )
                if rep_value != pinned[key]
            ]
    for plain, spans in zip(timed, traced):
        if plain["error"] or spans["error"]:
            continue
        label = f"{workload} sub-seed {plain['sub_seed']}"
        if plain["digest"] != spans["digest"]:
            problems.append(f"{label}: timed and traced decision digests differ")
        problems += [
            f"{label}: count {key} is {plain['exact'][key]} timed, {value} traced"
            for key, value in spans["exact"].items()
            if plain["exact"][key] != value
        ]
        drift = abs(spans["clocked_root_s"] / spans["raw_clock_s"] - 1.0)
        if driven_by_harness and drift > SELF_TIME_TOLERANCE:
            problems.append(
                f"{label}: self times sum to {spans['clocked_root_s']:.4f} s, "
                f"the clock read {spans['raw_clock_s']:.4f} s"
            )
    return problems


# ----------------------------------------------------------------------
# One (workload, mode) measurement


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    workdir: Path,
    spans_out: Optional[Path],
    pinned: bool = True,
) -> Dict[str, object]:
    """Repeat ``workload`` for ``seconds``; pool, check and report.

    ``pinned=False`` skips the comparison with ``expected.json`` (the
    run that rewrites it)."""
    spec = load_spec()
    names = spec["per_layer" if trace else "end_to_end"]
    started = perf_counter()
    timed: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    longest = 0.0
    while True:
        began = perf_counter()
        index = len(timed)
        sub_seed = seed * 1000 + index
        timed.append(
            spawn_rep(workload, sub_seed, False, smoke, index == 0, workdir)
        )
        if trace:
            traced.append(
                spawn_rep(
                    workload, sub_seed, True, smoke, False, workdir,
                    spans_out if index == 0 else None,
                )
            )
        longest = max(longest, perf_counter() - began)
        failed = timed[-1]["error"] or (trace and traced[-1]["error"])
        if smoke or failed or perf_counter() - started + longest > seconds:
            break
    extra_setups: List[float] = []
    while not (trace or smoke or failed) and len(timed) + len(extra_setups) < MIN_SETUPS:
        sample = spawn_rep(
            workload, seed * 1000 + len(timed) + len(extra_setups), False, smoke,
            False, workdir, setup_only=True,
        )
        if sample["error"]:
            timed.append(sample)
            break
        extra_setups.append(sample["setup_s"])

    expected = {}
    if pinned and seed == DEFAULT_SEED and EXPECTED_PATH.exists():
        scale = "smoke" if smoke else "full"
        expected = json.loads(EXPECTED_PATH.read_text()).get(scale, {}).get(workload, {})
    problems = check_reps(workload, workload != "wan-async", timed, traced, expected)
    # Every failure — a call that raised, a failed check in a child or
    # here — is one line of ``problems``.
    result: Dict[str, object] = {
        "workload": workload,
        "trace": int(trace),
        "seed": seed,
        "repetitions": len(timed),
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in timed + traced) + len(problems),
        "failed": len(problems),
        "problems": problems,
        "metrics": {},
        "reps": [_trimmed(r) for r in timed + traced],
    }
    if any(r["error"] for r in timed + traced):
        return result
    values = per_layer(timed, traced) if trace else end_to_end(timed, extra_setups)
    named = {entry["name"]: entry["unit"] for entry in names}
    if set(values) != set(named):
        raise SystemExit(
            f"metrics computed and metrics named in BENCHMARK.json differ: "
            f"{sorted(set(values) ^ set(named))}"
        )
    result["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in named.items()
    }
    result["samples"] = {
        "reconcile": sum(len(r["reconcile_ms"]) for r in (traced or timed)),
        "publish": sum(len(r["publish_ms"]) for r in (traced or timed)),
    }
    return result


def _trimmed(rep: Dict[str, object]) -> Dict[str, object]:
    """A repetition's record without its per-call sample lists."""
    return {k: v for k, v in rep.items() if k not in ("reconcile_ms", "publish_ms")}


def print_result(result: Dict[str, object]) -> None:
    """Every metric by name with its unit, then the JSON result line."""
    mode = "traced" if result["trace"] else "timed"
    print(
        f"== {result['workload']} ({mode} run, seed {result['seed']}, "
        f"{result['repetitions']} repetitions)"
    )
    samples = result.get("samples", {})
    for name, metric in result["metrics"].items():
        note = ""
        if "reconcile_p" in name:
            note = f"  (n={samples['reconcile']})"
        elif "publish_p" in name:
            note = f"  (n={samples['publish']})"
        print(f"{result['workload']:16s} {name:36s} {metric['value']:>16.6g} {metric['unit']}{note}")
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        ),
        flush=True,
    )


def update_expected(results: List[Dict[str, object]], smoke: bool) -> None:
    """Rewrite the pinned outputs from a run whose checks all passed."""
    pinned = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    scale = pinned.setdefault("smoke" if smoke else "full", {})
    for result in results:
        if result["trace"]:
            continue
        scale[result["workload"]] = {
            str(rep["sub_seed"]): {
                "digest": rep["digest"],
                "state_ratio": rep["state_ratio"],
                "published": rep["exact"]["published"],
                "msgs_per_txn": rep["exact"]["messages"] / rep["exact"]["published"],
                "wire_bytes_per_txn": rep["exact"]["wire_bytes"]
                / rep["exact"]["published"],
            }
            for rep in result["reps"]
            if not rep["traced"]
        }
    EXPECTED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    """Measure the requested workloads; non-zero when a check fails."""
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print("benchmarks.e2e: no program to measure under src/repro", file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument(
        "--workload", action="append", choices=workloads,
        help="a workload to run (repeatable; default: all five)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="how long each (workload, run) measures",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: the timed run; 1: the traced run; default: both",
    )
    parser.add_argument("--out", help="write results and rep-0 spans here (JSON)")
    parser.add_argument(
        "--smoke", action="store_true",
        help="one repetition per run at about 1/16 scale (the tier-1 smoke test)",
    )
    parser.add_argument(
        "--update-expected", action="store_true",
        help="rewrite expected.json from this run (default seed only)",
    )
    args = parser.parse_args(argv)
    if args.update_expected and (args.seed != DEFAULT_SEED or args.trace is not None):
        parser.error("--update-expected needs the default seed and both runs")

    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results = []
    spans: Dict[str, object] = {}
    try:
        for workload in args.workload or workloads:
            for trace in (0, 1) if args.trace is None else (args.trace,):
                spans_out = (
                    workdir / f"spans-{workload}.json" if args.out and trace else None
                )
                result = measure(
                    workload, args.seed, args.seconds, bool(trace), args.smoke,
                    workdir, spans_out, pinned=not args.update_expected,
                )
                if spans_out is not None and spans_out.exists():
                    spans[workload] = json.loads(spans_out.read_text())
                results.append(result)
                print_result(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    correct = all(result["correct"] for result in results)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"seed": args.seed, "results": results, "spans": spans})
        )
    if args.update_expected:
        if not correct:
            print("expected.json not rewritten: a check failed", file=sys.stderr)
            return 1
        update_expected(results, args.smoke)
    return 0 if correct else 1
