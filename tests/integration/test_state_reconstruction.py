"""The paper's soft-state claim, verified end to end.

"Each client contains only soft state; it is possible to reconstruct the
entire state of the participant, up to his or her last reconciliation,
from the update store."  A participant rebuilt via
:meth:`Participant.rebuild` must match the live one: same instance, same
decision sets, same open conflicts — and continue operating (publish,
reconcile, resolve) seamlessly.  Verified over all four stores, over
generated histories (the sweep: every participant of every run), and
over a central store closed and reopened from disk.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.cdss import Participant
from repro.confed import Confederation, ConfederationConfig
from repro.model import Insert
from repro.store import (
    CentralUpdateStore,
    DhtUpdateStore,
    DurableUpdateStore,
    MemoryUpdateStore,
    available_stores,
)
from repro.workload import WorkloadConfig, curated_schema


def build_store(kind, schema, path=None):
    if kind == "memory":
        return MemoryUpdateStore(schema)
    if kind == "central":
        return CentralUpdateStore(schema, path or ":memory:")
    if kind == "durable":
        return DurableUpdateStore(schema, path=path or ":memory:", cache_size=8)
    return DhtUpdateStore(schema, hosts=5)


def assert_rebuilt_like_live(rebuilt, live):
    """``rebuilt`` holds what ``live`` holds: instance, decision sets,
    dirty keys and open conflict groups."""
    assert rebuilt.instance.snapshot() == live.instance.snapshot()
    assert rebuilt.state.applied == live.state.applied
    assert rebuilt.state.rejected == live.state.rejected
    assert set(rebuilt.state.deferred) == set(live.state.deferred)
    assert rebuilt.state.dirty_keys == live.state.dirty_keys
    rebuilt_groups = {g.group_id for g in rebuilt.open_conflicts()}
    assert rebuilt_groups == {g.group_id for g in live.open_conflicts()}


def assert_every_participant_rebuilds(confed):
    for live in confed.participants:
        assert_rebuilt_like_live(Participant.rebuild(live.id, confed.store, live.policy), live)


@pytest.mark.parametrize("kind", ["memory", "central", "durable", "dht"])
def test_rebuilt_participant_matches_live(kind, tmp_path):
    schema = curated_schema()
    store = build_store(kind, schema, path=str(tmp_path / "rebuild.db"))
    config = ConfederationConfig.evaluation(
        4,
        reconciliation_interval=3,
        rounds=3,
        workload=WorkloadConfig(transaction_size=2, seed=23),
    )
    confed = Confederation(config, store=store).open()
    confed.run()
    assert_every_participant_rebuilds(confed)


@pytest.mark.parametrize("kind", ["memory", "durable", "dht"])
def test_rebuild_replays_an_own_edit_made_before_a_foreign_insert(kind):
    """The shrunk case: participant 3 replaced its own row by a local
    edit before it reconciled participant 1's insert at the same key.
    Replayed in publish order, the insert found the old row still there;
    replayed by the steps the store stamped, the edit goes in first."""
    config = ConfederationConfig.evaluation(
        3, store=kind, reconciliation_interval=2, rounds=4,
        workload=WorkloadConfig(transaction_size=1, seed=7),
    )
    with Confederation.from_config(config) as confed:
        confed.run()
        live = confed.participant(3)
        assert_rebuilt_like_live(Participant.rebuild(3, confed.store, live.policy), live)


#: Seeds of the generated sweep: ten in tier-1, forty under the ``deep``
#: Hypothesis profile (CI runs the sweep so beside the deep oracle step).
SWEEP_SEEDS = range(40 if settings.get_current_profile_name() == "deep" else 10)


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
@pytest.mark.parametrize("size", [1, 2, 3, 4])
@pytest.mark.parametrize("name", available_stores())
def test_sweep_every_participant_rebuilds_as_it_lives(name, size, seed):
    """Section 5.2 over generated histories: after a run of the
    evaluation schedule, every participant rebuilt from the store equals
    the live one.  Replayed in publish order with a trial-and-error
    buffer, 45 of the 240 rebuilds at sizes 1-2 on memory, durable and
    dht raised."""
    config = ConfederationConfig.evaluation(
        4, store=name, reconciliation_interval=2, rounds=4,
        workload=WorkloadConfig(transaction_size=size, seed=seed),
    )
    with Confederation.from_config(config) as confed:
        confed.run()
        assert_every_participant_rebuilds(confed)


def test_dht_stamps_survive_a_host_crash():
    """The applied-set versions ride in the replicated transaction
    records and decision deltas: with the busiest host down, and again
    after it recovered empty, every participant rebuilds as it lives."""
    config = ConfederationConfig.evaluation(
        4, store="dht", store_options={"hosts": 5, "replication_factor": 2},
        reconciliation_interval=2, rounds=4,
        workload=WorkloadConfig(transaction_size=2, seed=3),
    )
    with Confederation.from_config(config) as confed:
        confed.run()
        store = confed.store
        victim = max(store._hosts, key=lambda name: len(store._hosts[name].txns))
        store.fail_host(victim)
        confed.run()  # verdicts recorded while it is down
        assert not store._hosts[victim].txns
        assert_every_participant_rebuilds(confed)
        store.recover_host(victim)
        confed.run()
        assert store._hosts[victim].txns
        assert_every_participant_rebuilds(confed)


def test_rebuilt_participant_continues_operating():
    schema = curated_schema()
    store = MemoryUpdateStore(schema)
    confed = Confederation(store=store).open()
    p1, p2 = confed.add_mutually_trusting_participants([1, 2])
    p1.execute([Insert("F", ("rat", "prot1", "immune"), 1)])
    p1.publish_and_reconcile()
    p2.publish_and_reconcile()

    # p2's machine dies; it rebuilds from the store and keeps going.
    reborn = Participant.rebuild(2, store, p2.policy)
    assert reborn.instance.contains_row("F", ("rat", "prot1", "immune"))
    # Sequence numbers continue where they left off (no tid reuse).
    txn = reborn.execute([Insert("F", ("mouse", "prot2", "defense"), 2)])
    assert txn.tid.sequence == p2._sequence
    reborn.publish_and_reconcile()
    result = p1.publish_and_reconcile()
    assert len(result.accepted) == 1
    assert p1.instance.contains_row("F", ("mouse", "prot2", "defense"))


def test_central_store_survives_restart(tmp_path):
    schema = curated_schema()
    path = str(tmp_path / "store.db")

    with CentralUpdateStore(schema, path) as store:
        confed = Confederation(store=store).open()
        p1, p2 = confed.add_mutually_trusting_participants([1, 2])
        p1.execute([Insert("F", ("rat", "prot1", "immune"), 1)])
        p1.publish_and_reconcile()
        p2.publish_and_reconcile()
        live_snapshot = p2.instance.snapshot()
        policy1, policy2 = p1.policy, p2.policy
        live_version = store._applied_versions[2]
        assert live_version > 0

    # Process restart: a brand-new store object over the same file.
    with CentralUpdateStore(schema, path) as reopened:
        # Policies are process state; registering again re-attaches
        # them and adopts the participant rows already on disk.
        reopened.register_participant(1, policy1)
        reopened.register_participant(2, policy2)
        assert reopened._applied_versions[2] == live_version
        rebuilt = Participant.rebuild(2, reopened, policy2)
        assert rebuilt.instance.snapshot() == live_snapshot
        assert reopened.transaction_count() == 1
        assert reopened.last_reconciliation_epoch(2) >= 1


@pytest.mark.parametrize("name", available_stores())
def test_rebuilt_twins_decide_like_the_live_participants(name):
    """A rebuilt participant starts with none of the applied transactions
    in its graph and a live one drops them as it applies them: from the
    same store state both must emit the same decisions, epoch after epoch."""

    def second_run(rebuild: bool):
        config = ConfederationConfig.evaluation(
            4,
            store=name,
            reconciliation_interval=3,
            rounds=3,
            workload=WorkloadConfig(transaction_size=2, seed=23),
        )
        with Confederation.from_config(config) as confed:
            confed.run()
            if rebuild:
                confed.restore()
            stream = []
            confed.hooks.on_decision(
                lambda **event: stream.append(
                    (event["participant"], event["recno"], str(event["tid"]),
                     event["decision"].name)
                )
            )
            confed.run()
            return stream, {
                p.id: (p.instance.snapshot(), sorted(map(str, p.state.deferred)))
                for p in confed.participants
            }

    live_stream, live_state = second_run(rebuild=False)
    twin_stream, twin_state = second_run(rebuild=True)
    assert twin_stream == live_stream
    assert twin_state == live_state
    assert {verdict for *_root, verdict in live_stream} == {
        "ACCEPT", "REJECT", "DEFER",
    }
