"""Property-based tests for whole-system reconciliation invariants.

Random seeded CDSS histories are generated (random peers, trust
priorities, edits, publish/reconcile schedules) and the paper's semantic
guarantees are checked over every participant at every step:

1. *Decision partition* — applied, rejected, and deferred sets never
   overlap, and every root gets exactly one verdict.
2. *Monotonicity* — an update once applied is never rolled back: any row
   removed or changed must be explained by a later accepted update, never
   by reconsidering a decision (we check decisions are never retracted).
3. *Deferred conflicts are real* — every conflict group holds at least
   two options (something to choose between).
4. *Instances follow decisions* — replaying each participant's applied
   transactions through its trust-ordered history reproduces its
   instance exactly (no phantom state).
5. *The engine decides as the paper does* — the reference oracle
   (``tests/reference/oracle.py``, which shares no code with the engine)
   reaches the same decisions, dirty keys, conflict groups and instance
   rows after every run of a generated schedule — conflicts, chains,
   own-delta rejections, resolutions, soft-state rebuilds.
"""

from __future__ import annotations

import random
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confed import Confederation
from repro.model import Delete, Insert, Modify
from repro.policy import TrustPolicy
from repro.store import MemoryUpdateStore
from repro.workload import curated_schema

from tests.reference.mirror import Mirror, examples


def run_random_history(seed: int, steps: int = 40):
    """Drive a small random CDSS; returns the system and a decision log."""
    rng = random.Random(seed)
    schema = curated_schema()
    confed = Confederation(store=MemoryUpdateStore(schema)).open()
    peer_ids = [1, 2, 3, 4]
    for pid in peer_ids:
        policy = TrustPolicy()
        for other in peer_ids:
            if other != pid:
                policy.trust_participant(other, rng.choice([1, 1, 2]))
        confed.add_participant(pid, policy)

    keys = [("rat", f"p{i}") for i in range(4)]
    functions = [f"fn{i}" for i in range(3)]
    decision_history: Dict[int, List[Dict[str, set]]] = {
        pid: [] for pid in peer_ids
    }

    for _step in range(steps):
        participant = confed.participant(rng.choice(peer_ids))
        action = rng.random()
        if action < 0.6:
            updates = _random_edit(rng, participant, keys, functions)
            if updates:
                participant.execute(updates)
        else:
            participant.publish_and_reconcile()
            state = participant.state
            decision_history[participant.id].append(
                {
                    "applied": set(state.applied),
                    "rejected": set(state.rejected),
                    "deferred": set(state.deferred),
                }
            )
    # Final pass so that every peer has at least one recorded decision set.
    for pid in peer_ids:
        participant = confed.participant(pid)
        participant.publish_and_reconcile()
        state = participant.state
        decision_history[pid].append(
            {
                "applied": set(state.applied),
                "rejected": set(state.rejected),
                "deferred": set(state.deferred),
            }
        )
    return confed, decision_history


def _random_edit(rng, participant, keys, functions):
    """One edit of a random key, as the updates to execute (None: the
    draw changes nothing)."""
    organism, protein = rng.choice(keys)
    current = participant.instance.get("F", (organism, protein))
    function = rng.choice(functions)
    if current is None:
        return [Insert("F", (organism, protein, function), participant.id)]
    if rng.random() < 0.25:
        return [Delete("F", current, participant.id)]
    if current[2] != function:
        return [Modify("F", current, (organism, protein, function), participant.id)]
    return None


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_decision_sets_partition(seed):
    confed, _history = run_random_history(seed)
    for participant in confed.participants:
        state = participant.state
        applied, rejected = state.applied, state.rejected
        deferred = set(state.deferred)
        assert not applied & rejected
        assert not applied & deferred
        assert not rejected & deferred


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_decisions_are_never_retracted(seed):
    _cdss, history = run_random_history(seed)
    for _pid, snapshots in history.items():
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert earlier["applied"] <= later["applied"]
            # A root rejection may be superseded when the transaction's
            # updates later reach the instance inside an accepted chain;
            # it never silently vanishes.
            for tid in earlier["rejected"] - later["rejected"]:
                assert tid in later["applied"]
            # Deferred entries may leave (resolved into applied/rejected)
            # but only into a *final* verdict:
            departed = earlier["deferred"] - later["deferred"]
            for tid in departed:
                assert tid in later["applied"] or tid in later["rejected"]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_conflict_groups_offer_choices(seed):
    confed, _history = run_random_history(seed)
    for participant in confed.participants:
        for group in participant.open_conflicts():
            assert len(group.options) >= 2
            involved = group.transactions()
            for tid in involved:
                assert participant.state.is_deferred(tid)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_dirty_keys_cover_deferred_extensions(seed):
    confed, _history = run_random_history(seed)
    for participant in confed.participants:
        state = participant.state
        if state.deferred:
            assert state.dirty_keys, (
                "deferred transactions must mark dirty keys so later "
                "arrivals defer too"
            )
        else:
            assert not state.dirty_keys


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_state_ratio_within_bounds(seed):
    confed, _history = run_random_history(seed)
    ratio = confed.state_ratio()
    assert 1.0 <= ratio <= len(confed)


# ----------------------------------------------------------------------
# 5. The engine against the reference oracle


def _system(rng_seed: int):
    """Four peers at seeded trust priorities over one memory store, with
    the oracle shadowing every one of them."""
    rng = random.Random(rng_seed)
    confed = Confederation(store=MemoryUpdateStore(curated_schema())).open()
    for pid in (1, 2, 3, 4):
        policy = TrustPolicy()
        for other in (1, 2, 3, 4):
            if other != pid:
                policy.trust_participant(other, rng.choice([1, 1, 2]))
        confed.add_participant(pid, policy)
    return confed, Mirror(confed)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=examples(40), deadline=None)
def test_engine_decides_as_the_literal_kernel_does(seed):
    confed, mirror = _system(seed)
    rng = random.Random(seed + 1)
    keys = [("rat", f"p{i}") for i in range(3)]
    functions = [f"fn{i}" for i in range(3)]
    for _step in range(60):
        action = rng.random()
        # (Peer 4 only consumes: nothing of its own settles a key first,
        # so what conflicts there waits for a resolution.)
        pid = rng.choice((1, 2, 3) if action < 0.5 else (1, 2, 3, 4, 4))
        participant = confed.participant(pid)
        if action < 0.5:
            updates = _random_edit(rng, participant, keys, functions)
            if updates:
                mirror.execute(participant, updates)
        elif action > 0.92:
            mirror.rebuild_soft_state(participant)
        elif action > 0.8 and participant.open_conflicts():
            groups = participant.open_conflicts()
            group = groups[rng.randrange(len(groups))]
            mirror.resolve(participant, group.group_id, rng.choice([None, *range(len(group.options))]))
        else:
            participant.publish_and_reconcile()  # the hooks compare it
