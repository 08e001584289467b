"""Engine perf: incremental caching + single-pass flatten vs the seed path.

Pins the speedup of the cached reconciliation engine on the Figure 12
50-peer / central-store configuration (the local-seconds column) and
guards its correctness: the cached engine's accept/reject/defer decisions
must be byte-identical to an uncached run on a randomized 8-peer
simulation.

The baseline is a *seed-path emulation*: the engine runs with both caches
disabled and with every derivation this PR made incremental restored to
its seed form —

* update extensions use the trace-twice pattern (``flatten`` +
  ``keys_touched`` as two separate chain traces);
* conflict-group construction re-runs ``direct_conflict_points`` —
  rebuilding the per-extension key indexes per pair — for every adjacent
  pair, as the seed's ``build_conflict_groups`` did;
* ``_minimise`` restarts its full O(n²) reader/writer-index rebuild after
  every composition instead of maintaining the indexes incrementally;
* ``Update.keys_touched`` recomputes its qualified keys on every call and
  ``TransactionId`` re-hashes on every set/dict operation.

Emulation slightly *under*-counts the seed (e.g. per-update key helpers
still route through ``keys_touched`` rather than computing ``key_of``
inline), so the asserted speedup is conservative.

Emits ``BENCH_engine.json`` at the repository root — one machine-readable
trajectory point per run, uploaded as a CI artifact so the perf history
accumulates across PRs.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

import importlib

import repro.core.cache as cache_module
import repro.core.engine as engine_module

#: ``repro.model``'s package attribute ``flatten`` is the *function* (it
#: shadows the submodule), so resolve the module through importlib.
flatten_module = importlib.import_module("repro.model.flatten")
from repro.confed import Confederation, ConfederationConfig
from repro.core.conflicts import (
    ConflictGroup,
    Option,
    _conflict_points,
    find_conflicts,
)
from repro.core.extensions import UpdateExtension, index_by_key, update_footprint
from repro.model.flatten import flatten, keys_touched
from repro.model.transactions import TransactionId
from repro.model.updates import Delete, Insert, Modify
from repro.workload.generator import (
    WorkloadConfig,
    WorkloadGenerator,
)

from benchmarks.conftest import emit

PEERS = 50
INTERVAL = 4
ROUNDS = 2
SEED = 42
SPEEDUP_FLOOR = 3.0

_BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


# ----------------------------------------------------------------------
# Seed-path emulation


def _seed_compute_update_extension(schema, graph, root, applied):
    """The seed's trace-twice extension derivation (flatten + keys_touched)."""
    members = graph.extension(root.tid, applied)
    footprint = update_footprint(graph, members)
    operations = tuple(flatten(schema, footprint))  # chain trace #1
    touched = frozenset(keys_touched(schema, footprint))  # chain trace #2
    return UpdateExtension(
        root=root.tid,
        members=tuple(members),
        operations=operations,
        touched=touched,
        priority=root.priority,
    )


def _seed_conflict_points(schema, left_ops, right_ops):
    """Seed behaviour: indexes rebuilt from scratch for every pair."""
    return _conflict_points(
        schema, index_by_key(schema, left_ops), index_by_key(schema, right_ops)
    )


def _seed_effect_at_key(schema, extension, key):
    """What the seed grouped options by: the row an extension leaves at
    ``key``, or None (the library partitions by ``_option_signature``)."""
    for update in extension.operations:
        written = update.written_row()
        if written is not None:
            rel = schema.relation(update.relation)
            if (update.relation, rel.key_of(written)) == key:
                return written
    return None


def _seed_direct_conflict_points(schema, graph, left, right):
    """The seed's pairwise comparison, without the memoized key indexes."""
    shared = left.member_set() & right.member_set()
    if not shared:
        return _seed_conflict_points(schema, left.operations, right.operations)
    left_members = [tid for tid in left.members if tid not in shared]
    right_members = [tid for tid in right.members if tid not in shared]
    if not left_members or not right_members:
        return []
    left_ops = flatten(schema, update_footprint(graph, left_members))
    right_ops = flatten(schema, update_footprint(graph, right_members))
    return _seed_conflict_points(schema, left_ops, right_ops)


def _seed_build_conflict_groups(schema, graph, deferred, cache=None, analysis=None):
    """The seed's UpdateSoftState grouping: a fresh FindConflicts pass,
    then ``direct_conflict_points`` re-run per adjacent pair."""
    adjacency = find_conflicts(schema, graph, deferred).adjacency
    members: Dict[Tuple, Set] = {}
    for tid, neighbours in adjacency.items():
        for other in neighbours:
            if other < tid:
                continue
            points = _seed_direct_conflict_points(
                schema, graph, deferred[tid], deferred[other]
            )
            for point in points:
                members.setdefault(point, set()).update((tid, other))
    groups = {}
    for (kind, key), tids in members.items():
        by_effect: Dict[object, List] = {}
        for tid in sorted(tids):
            effect = _seed_effect_at_key(schema, deferred[tid], key)
            by_effect.setdefault(effect, []).append(tid)
        options = [
            Option(transactions=tuple(tids_for_effect), effect=effect)
            for effect, tids_for_effect in sorted(
                by_effect.items(), key=lambda item: repr(item[0])
            )
        ]
        groups[(kind, key)] = ConflictGroup(kind=kind, key=key, options=options)
    return groups


def _seed_minimise(schema, nets):
    """The seed's fixpoint minimiser: full index rebuild per composition."""
    from repro.model.flatten import _compose_pair, _reader_at, _writer_at

    updates = list(nets)
    changed = True
    while changed:
        changed = False
        readers = {}
        writers = {}
        for update in updates:
            read_key = _reader_at(schema, update)
            if read_key is not None:
                readers[read_key] = update
            write_key = _writer_at(schema, update)
            if write_key is not None:
                writers[write_key] = update
        for key, reader in readers.items():
            writer = writers.get(key)
            if writer is None or writer is reader:
                continue
            replacement = _compose_pair(reader, writer)
            if replacement is None:
                continue
            updates = [u for u in updates if u is not reader and u is not writer]
            updates.extend(replacement)
            changed = True
            break
    return updates


def _seed_single_key_touched(self, schema):
    """Unmemoized seed keys_touched for Insert/Delete."""
    rel = schema.relation(self.relation)
    row = self.row
    return ((self.relation, rel.key_of(row)),)


def _seed_modify_keys_touched(self, schema):
    """Unmemoized seed keys_touched for Modify."""
    rel = schema.relation(self.relation)
    old_key = (self.relation, rel.key_of(self.old_row))
    new_key = (self.relation, rel.key_of(self.new_row))
    if old_key == new_key:
        return (old_key,)
    return (old_key, new_key)


def _seed_tid_hash(self):
    """Uncached seed TransactionId hashing."""
    return hash((self.participant, self.sequence))


# ----------------------------------------------------------------------
# Runners


def _fig12_run(engine_caching: bool):
    config = ConfederationConfig(
        store="central",
        peers=tuple(range(1, PEERS + 1)),
        reconciliation_interval=INTERVAL,
        rounds=ROUNDS,
        workload=WorkloadConfig(transaction_size=1, seed=SEED),
        final_reconcile=True,
        engine_caching=engine_caching,
    )
    with Confederation.from_config(config) as confederation:
        return confederation.run()


def _run_cached():
    return _fig12_run(engine_caching=True)


def _run_seed_emulation(monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(
            cache_module,
            "compute_update_extension",
            _seed_compute_update_extension,
        )
        patched.setattr(
            engine_module, "build_conflict_groups", _seed_build_conflict_groups
        )
        patched.setattr(flatten_module, "_minimise", _seed_minimise)
        patched.setattr(Insert, "keys_touched", _seed_single_key_touched)
        patched.setattr(Delete, "keys_touched", _seed_single_key_touched)
        patched.setattr(Modify, "keys_touched", _seed_modify_keys_touched)
        patched.setattr(TransactionId, "__hash__", _seed_tid_hash)
        return _fig12_run(engine_caching=False)


# ----------------------------------------------------------------------
# The headline benchmark


def test_perf_engine_cached_vs_seed_path(benchmark, monkeypatch):
    baseline = _run_seed_emulation(monkeypatch)
    cached = benchmark.pedantic(_run_cached, rounds=1, iterations=1)

    baseline_local = baseline.mean_local_seconds_per_reconciliation
    cached_local = cached.mean_local_seconds_per_reconciliation
    speedup = baseline_local / cached_local if cached_local else float("inf")
    stats = cached.cache_stats

    emit(
        f"Engine perf — Fig-12 {PEERS}-peer/central, local s per recon:\n"
        f"  seed-path baseline : {baseline_local * 1000:8.2f} ms\n"
        f"  cached engine      : {cached_local * 1000:8.2f} ms\n"
        f"  speedup            : {speedup:8.2f}x (floor {SPEEDUP_FLOOR}x)\n"
        f"  extension hit rate : {stats.hit_rate:8.2%} "
        f"({stats.hits} hits, {stats.revalidations} revalidations, "
        f"{stats.misses} misses)\n"
        f"  pair-cache hit rate: {stats.pair_hit_rate:8.2%}"
    )

    point = {
        "schema_version": 1,
        "benchmark": "engine_reconciliation",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "config": {
            "peers": PEERS,
            "interval": INTERVAL,
            "rounds": ROUNDS,
            "seed": SEED,
            "store": "central",
        },
        "seed_path_local_seconds_per_reconciliation": baseline_local,
        "cached_local_seconds_per_reconciliation": cached_local,
        "speedup": speedup,
        "cache_stats": stats.as_dict(),
        "state_ratio": cached.state_ratio,
    }
    _BENCH_JSON.write_text(json.dumps(point, indent=2) + "\n")

    benchmark.extra_info.update(point)

    # Same decisions, same replicas: the caches must not change outcomes.
    assert cached.state_ratio == baseline.state_ratio
    assert speedup >= SPEEDUP_FLOOR, (
        f"cached engine is only {speedup:.2f}x faster than the seed path "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


# ----------------------------------------------------------------------
# Correctness guard: byte-identical decisions on a randomized simulation


def _capture_decision_log(engine_caching: bool, seed: int = 1234):
    """Run a randomized 8-peer simulation recording every decision."""
    confederation = Confederation.from_config(
        ConfederationConfig(
            store="memory",
            peers=tuple(range(1, 9)),
            engine_caching=engine_caching,
        )
    )
    generator = WorkloadGenerator(WorkloadConfig(transaction_size=2, seed=seed))
    log = []
    for _round in range(3):
        for participant in confederation.participants:
            for _ in range(3):
                updates = generator.transaction_updates(
                    participant.id, participant.instance
                )
                if updates:
                    participant.execute(updates)
            result = participant.publish_and_reconcile()
            log.append(
                (
                    participant.id,
                    result.recno,
                    sorted(map(str, result.accepted)),
                    sorted(map(str, result.rejected)),
                    sorted(map(str, result.deferred)),
                    sorted(map(str, result.applied)),
                    sorted(
                        (str(tid), verdict.value)
                        for tid, verdict in result.decisions.items()
                    ),
                    sorted(
                        (repr(group_id), count)
                        for group_id, count in result.conflict_groups
                    ),
                )
            )
    snapshots = {
        p.id: p.instance.snapshot() for p in confederation.participants
    }
    return log, snapshots


def test_cached_engine_decisions_are_byte_identical():
    cached_log, cached_snapshots = _capture_decision_log(engine_caching=True)
    fresh_log, fresh_snapshots = _capture_decision_log(engine_caching=False)
    assert cached_log == fresh_log
    assert cached_snapshots == fresh_snapshots
