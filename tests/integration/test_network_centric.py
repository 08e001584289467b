"""Network-centric reconciliation: Figure 3's store-computed mode.

The defining requirement: a network-centric participant must reach
*exactly* the same decisions and instance as a client-centric one — the
modes trade communication for local work, never outcomes.
"""

from __future__ import annotations

import pytest

from repro.confed import Confederation
from repro.model import Insert
from repro.policy import TrustPolicy, policy_from_priorities
from repro.store import (
    CentralUpdateStore,
    DhtUpdateStore,
    DurableUpdateStore,
    MemoryUpdateStore,
)
from repro.workload import WorkloadConfig, WorkloadGenerator, curated_schema


RAT_IMMUNE = ("rat", "prot1", "immune")
RAT_RESP = ("rat", "prot1", "cell-resp")
MOUSE = ("mouse", "prot2", "immune")


@pytest.fixture(params=["memory", "central", "durable", "dht"])
def store_factory(request):
    def factory():
        schema = curated_schema()
        if request.param == "memory":
            return MemoryUpdateStore(schema)
        if request.param == "dht":
            return DhtUpdateStore(schema, hosts=4)
        if request.param == "durable":
            return DurableUpdateStore(schema, path=":memory:", cache_size=8)
        return CentralUpdateStore(schema)

    return factory


def run_workload(store, network_centric: bool):
    """A seeded conflict-heavy run; returns snapshots and decision sets."""
    confed = Confederation(store=store).open()
    peer_ids = [1, 2, 3, 4]
    participants = []
    for pid in peer_ids:
        policy = TrustPolicy()
        for other in peer_ids:
            if other != pid:
                policy.trust_participant(other, 1)
        participants.append(
            confed.add_participant(pid, policy)
        )
        participants[-1].network_centric = network_centric

    generator = WorkloadGenerator(WorkloadConfig(transaction_size=2, seed=31))
    for _round in range(3):
        for participant in participants:
            for _ in range(3):
                updates = generator.transaction_updates(
                    participant.id, participant.instance
                )
                if updates:
                    participant.execute(updates)
            participant.publish_and_reconcile()
    snapshots = {p.id: p.instance.snapshot() for p in participants}
    decisions = {
        p.id: (
            sorted(map(str, p.state.applied)),
            sorted(map(str, p.state.rejected)),
            sorted(map(str, p.state.deferred)),
        )
        for p in participants
    }
    return snapshots, decisions


class TestNetworkCentricEquivalence:
    def test_same_outcomes_as_client_centric(self, store_factory):
        client = run_workload(store_factory(), network_centric=False)
        network = run_workload(store_factory(), network_centric=True)
        assert client == network

    def test_deferred_transactions_reconsidered(self, store_factory):
        store = store_factory()
        confed = Confederation(store=store).open()
        p1 = confed.add_participant(1, policy_from_priorities([(2, 1), (3, 1)]))
        p2 = confed.add_participant(2, policy_from_priorities([(1, 1), (3, 1)]))
        p3 = confed.add_participant(3, policy_from_priorities([(1, 1), (2, 1)]))
        p3.network_centric = True

        p1.execute([Insert("F", RAT_IMMUNE, 1)])
        p1.publish_and_reconcile()
        p2.execute([Insert("F", RAT_RESP, 2)])
        p2.publish_and_reconcile()
        result = p3.publish_and_reconcile()
        assert len(result.deferred) == 2
        assert len(p3.open_conflicts()) == 1

        # Resolution still works in network-centric mode.
        from repro.core import Resolution

        [group] = p3.open_conflicts()
        chosen = next(
            i for i, opt in enumerate(group.options) if opt.effect == RAT_IMMUNE
        )
        p3.resolve([Resolution(group.group_id, chosen)])
        assert p3.instance.contains_row("F", RAT_IMMUNE)
        assert p3.open_conflicts() == []

        # The next network-centric reconciliation carries no stale roots.
        p1.execute([Insert("F", MOUSE, 1)])
        p1.publish_and_reconcile()
        result = p3.publish_and_reconcile()
        assert [str(t) for t in result.accepted] == ["X1:1"]

    def test_a_quiet_round_examines_no_pair_store_side(self, store_factory):
        # The store-side FindConflicts is the incremental index: a batch
        # assembled with no publication since the participant's last one
        # re-delivers the same deferred extension objects, so it compares
        # no pair and looks none up (the stateless scanner it replaced
        # looked every open pair up again, counted as a ``pair_hit``).
        store = store_factory()
        confed = Confederation(store=store).open()
        p1 = confed.add_participant(1, policy_from_priorities([(2, 1), (3, 1)]))
        p2 = confed.add_participant(2, policy_from_priorities([(1, 1), (3, 1)]))
        p3 = confed.add_participant(3, policy_from_priorities([(1, 1), (2, 1)]))
        p3.network_centric = True

        def store_side():
            if isinstance(store, DhtUpdateStore):
                index = store._peers[3].pairs
            else:
                index = store._nc_caches[3][1]
                assert index.stats is store._nc_caches[3][0].stats
                assert store.derivation_stats().pair_misses == index.stats.pair_misses
            # complete_reconciliation retired it to the open deferred set.
            assert len(index) == len(p3.state.deferred)
            # Nobody asks an assembly index for conflict groups, so it
            # keeps no membership books; the client's own index does.
            assert index._standing is None
            assert p3.reconciler._conflict_index._standing is not None
            return index.stats.pair_hits, index.stats.pair_misses

        p1.execute([Insert("F", RAT_IMMUNE, 1)])
        p1.publish_and_reconcile()
        p2.execute([Insert("F", RAT_RESP, 2)])
        p2.publish_and_reconcile()
        assert len(p3.reconcile().deferred) == 2
        assert store_side() == (0, 1)

        for _quiet_round in range(2):
            assert len(p3.reconcile().deferred) == 2
            assert store_side() == (0, 1)
        assert len(p3.open_conflicts()) == 1

        # A new publication is compared against what is open — once.
        p1.execute([Insert("F", MOUSE, 1)])
        p1.publish_and_reconcile()
        assert [str(t) for t in p3.reconcile().accepted] == ["X1:1"]
        assert store_side() == (0, 1)  # MOUSE shares no key with the open pair

    def test_a_client_only_store_cannot_be_built(self, schema):
        # Both Figure 3 columns are the store contract: a backend
        # without the store-computed batch is refused at construction,
        # not at its first network-centric reconcile.
        from repro.store.base import UpdateStore

        class ClientOnly(MemoryUpdateStore):
            begin_network_reconciliation = (
                UpdateStore.begin_network_reconciliation
            )

        with pytest.raises(TypeError, match="begin_network_reconciliation"):
            ClientOnly(schema)

    def test_dht_serves_store_computed_batches(self, schema):
        # The last Figure-3 quadrant: the distributed store returns a
        # fully-assembled per-participant batch.
        store = DhtUpdateStore(schema, hosts=3)
        store.register_participant(
            1, TrustPolicy().trust_participant(2, 1)
        )
        store.register_participant(2, TrustPolicy())
        from repro.cdss import Participant

        publisher = Participant(2, store, TrustPolicy(), register=False)
        publisher.execute([Insert("F", RAT_IMMUNE, 2)])
        publisher.publish()
        batch = store.begin_network_reconciliation(1)
        assert batch.network_centric
        [root] = batch.roots
        assert str(root.tid) == "X2:0"
        assert set(batch.extensions) == {root.tid}
        assert set(batch.conflicts) == {root.tid}

    def test_batch_reports_mode(self, store_factory):
        store = store_factory()
        store.register_participant(1, TrustPolicy().trust_participant(2, 1))
        store.register_participant(2, TrustPolicy())
        client_batch = store.begin_reconciliation(1)
        assert not client_batch.network_centric
        network_batch = store.begin_network_reconciliation(1)
        assert network_batch.network_centric
        assert network_batch.extensions == {}
        assert network_batch.conflicts == {}
