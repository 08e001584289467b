"""Conflict groups are built when read.

``UpdateSoftState`` keeps what the next reconcile reads, the dirty values,
and leaves the conflict groups to be built from the deferred extensions a
step left, on the first read of ``ParticipantState.conflict_groups`` after
it.  Held here: after a reconcile, a resolve and a rebuild, the groups
equal :func:`build_conflict_groups` over the deferred roots' extensions
derived from scratch; reading them moves no counter and no shared memo;
and a ``conflict`` subscriber is handed the groups a reader would get —
the same stream the incrementally kept groups produced — without moving
any decision or counter.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cdss.participant import Participant
from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.core import Resolution
from repro.core.conflicts import build_conflict_groups
from repro.workload import WorkloadConfig
from tests.core.helpers import derive_extension

#: The ``conflict`` events of :func:`config` (participant, recno, group id,
#: options), measured where the groups were still kept incrementally by
#: the conflict index on every reconcile: 111 events, this sha256 of their
#: ``repr``, in every mode below.
CONFLICT_EVENTS = 111
CONFLICT_EVENTS_SHA256 = "faa010d8ba438bd887eb1e85761138be53ab30a47d2cc2fe90abb88226b6c568"

MODES = [("memory", "client"), ("dht", "client"), ("dht", "store")]


def config(store="memory", network_centric="client") -> ConfederationConfig:
    """``test_call_budget``'s reduced ``eval-conflict`` schedule."""
    return ConfederationConfig(
        store=store,
        peers=tuple(range(1, 11)),
        workload=WorkloadConfig(transaction_size=1, seed=7000),
        reconciliation_interval=4,
        rounds=3,
        final_reconcile=True,
        network_centric=network_centric,
    )


def fresh_groups(schema, state):
    """The groups of ``state``'s deferred roots, every extension derived
    from scratch over its applied set."""
    return build_conflict_groups(
        schema,
        state.graph,
        {
            root.tid: derive_extension(schema, state.graph, root, state.applied)
            for root in state.deferred_roots()
        },
    )


def read_without_moving_anything(confed, participant):
    """``participant``'s groups, asserting the read moved no counter of
    its own and no edge or derivation of the store's shared graph."""
    stats = participant.reconciler.cache.stats.snapshot()
    shared = confed.store.shared_pair_cache()
    registered = len(shared)
    groups = participant.state.conflict_groups
    assert participant.reconciler.cache.stats == stats
    assert len(shared) == registered
    return groups


def test_groups_read_after_a_reconcile_a_resolve_and_a_rebuild_are_built_from_scratch():
    checked = []
    with Confederation.from_config(config()) as confed:
        schema = confed.schema

        def after_reconcile(participant, **_event):
            live = confed.participant(participant)
            groups = read_without_moving_anything(confed, live)
            assert groups == fresh_groups(schema, live.state)
            assert live.state.conflict_groups is groups  # kept until the next step
            checked.append(bool(groups))

        confed.hooks.on_reconcile(after_reconcile)
        confed.run()
        assert any(checked)
        resolvable = [p for p in confed.participants if p.open_conflicts()]
        assert resolvable
        for participant in resolvable:
            [first, *_] = participant.open_conflicts()
            participant.resolve([Resolution(first.group_id, 0)])
            groups = read_without_moving_anything(confed, participant)
            assert first.group_id not in groups
            assert groups == fresh_groups(schema, participant.state)
        for participant in confed.participants:
            rebuilt = Participant.rebuild(participant.id, confed.store, participant.policy)
            assert rebuilt.state.conflict_groups == fresh_groups(schema, rebuilt.state)
            assert rebuilt.state.conflict_groups == participant.state.conflict_groups


def _run(store, network_centric, subscribe):
    """Decisions, ``cache_stats`` events, the report's counters and (when
    ``subscribe``) the ``conflict`` events of one run of :func:`config`."""
    decisions, stats, conflicts = [], [], []
    hooks = HookBus()
    hooks.on_decision(
        lambda **e: decisions.append((e["participant"], e["recno"], e["tid"], e["decision"]))
    )
    hooks.on_cache_stats(lambda **e: stats.append((e["participant"], e["recno"], e["stats"])))
    if subscribe:
        hooks.on_conflict(
            lambda **e: conflicts.append(
                (
                    e["participant"],
                    e["recno"],
                    e["group"].group_id,
                    [(option.transactions, option.effect) for option in e["group"].options],
                )
            )
        )
    with Confederation(config(store, network_centric), hooks=hooks) as confed:
        report = confed.run()
    return decisions, stats, report.cache_stats, conflicts


@pytest.mark.parametrize("store, network_centric", MODES)
def test_a_conflict_subscriber_sees_the_same_events_and_moves_nothing(
    store, network_centric
):
    decisions, stats, totals, conflicts = _run(store, network_centric, subscribe=True)
    assert len(conflicts) == CONFLICT_EVENTS
    assert hashlib.sha256(repr(conflicts).encode()).hexdigest() == CONFLICT_EVENTS_SHA256
    # Building the groups for the subscriber decided and counted nothing.
    assert (decisions, stats, totals) == _run(store, network_centric, subscribe=False)[:3]
