"""Reconciliation-aware retention of the shared conflict graph.

The graph — every derivation participants share, and the edges hung on
them — used to be FIFO-capped; it is now pruned when every registered
participant holds a final verdict for a root: it tracks the
confederation's open frontier, not its history.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.core.cache import ExtensionCache
from repro.core.decisions import ReconcileResult
from repro.model import Insert, Modify
from repro.model.transactions import Transaction, TransactionId
from repro.policy import TrustPolicy
from repro.store import CentralUpdateStore, MemoryUpdateStore
from repro.workload import WorkloadConfig, curated_schema
from tests.conftest import decision_stream
from tests.integration.test_store_equivalence import CHAIN_SHARING, EVALUATION


def mutual_store(store_cls):
    store = store_cls(curated_schema())
    for pid in (1, 2, 3):
        policy = TrustPolicy()
        for other in (1, 2, 3):
            if other != pid:
                policy.trust_participant(other, 1)
        store.register_participant(pid, policy)
    return store


def client_extensions(store, participant):
    """``participant``'s client-centric batch, each root's extension
    derived as its client does: adopted from the store's conflict graph,
    or flattened there and registered for the next reader."""
    batch = store.begin_reconciliation(participant)
    cache = ExtensionCache()
    return {
        root.tid: cache.get_or_compute(
            store.schema, batch.graph, root, set(), 0, shared=batch.pair_cache
        )
        for root in batch.roots
    }


def derivation(store, txn):
    """The derivation of ``txn`` over itself alone on the store's
    conflict graph, if it holds one."""
    return store.shared_pair_cache().derived(txn.tid, (txn.tid,))


class TestRetention:
    @staticmethod
    def _publish_one(store):
        txn = Transaction(
            TransactionId(1, 0), (Insert("F", ("rat", "p1", "fn-a"), 1),)
        )
        store.publish(1, [txn])
        return txn

    def test_memory_memo_retired_once_all_participants_decided(self):
        store = mutual_store(MemoryUpdateStore)
        txn = self._publish_one(store)
        # Both receivers' clients derive (the first registers on the
        # graph, the second adopts), then they decide.
        client_extensions(store, 2)
        client_extensions(store, 3)
        assert derivation(store, txn) is not None
        store.complete_reconciliation(
            2, ReconcileResult(recno=1, applied=[txn.tid])
        )
        # Participant 3 is still undecided: the entry must survive.
        assert derivation(store, txn) is not None
        store.complete_reconciliation(
            3, ReconcileResult(recno=1, applied=[txn.tid])
        )
        assert derivation(store, txn) is None
        assert store.retired_extension_count() == 1

    def test_central_memo_retired_once_all_participants_decided(self):
        store = mutual_store(CentralUpdateStore)
        txn = self._publish_one(store)
        client_extensions(store, 2)
        client_extensions(store, 3)
        store.complete_reconciliation(
            2, ReconcileResult(recno=1, applied=[txn.tid])
        )
        extension = derivation(store, txn)
        assert extension is not None
        store.complete_reconciliation(
            3, ReconcileResult(recno=1, rejected=[txn.tid])
        )
        assert derivation(store, txn) is None
        assert store.retired_extension_count() == 1
        # Dropped, as on every log — the next miss (a participant
        # registered after retirement) derives it again, value-equal.
        store.register_participant(4, TrustPolicy().trust_participant(1, 1))
        again = client_extensions(store, 4)[txn.tid]
        assert again == extension and again is not extension
        assert derivation(store, txn) is again

    def test_deferred_roots_are_not_retired(self):
        store = mutual_store(MemoryUpdateStore)
        txn = self._publish_one(store)
        client_extensions(store, 2)
        store.complete_reconciliation(
            2, ReconcileResult(recno=1, deferred=[txn.tid])
        )
        store.complete_reconciliation(
            3, ReconcileResult(recno=1, applied=[txn.tid])
        )
        # 2's deferral keeps the root open — it will be reconsidered.
        assert derivation(store, txn) is not None
        assert store.retired_extension_count() == 0

    def test_pair_memo_shrinks_with_retirement(self):
        store = mutual_store(MemoryUpdateStore)
        txn = self._publish_one(store)
        client_extensions(store, 2)
        pairs = store.shared_pair_cache()
        # Hang an edge on the root's derivation; retirement must unlink
        # it — at the other end too, which stays registered.
        extension = derivation(store, txn)
        other = replace(extension, root=TransactionId(2, 99))
        pairs.link(extension, other, ())
        assert len(pairs) == 2
        assert other._hood == {id(extension): (extension, ())}
        for pid in (2, 3):
            store.complete_reconciliation(
                pid, ReconcileResult(recno=1, applied=[txn.tid])
            )
        assert len(pairs) == 1
        assert extension._hood is None and other._hood == {}

    def _retention_run(self, schedule_mode, memo_limit=None):
        """One seeded run; ``memo_limit`` shrinks the shared memos so
        the FIFO backstop evicts *during* the run, between retirements
        and, under ``async``, while other participants' reconciles are
        pipelined."""
        config = ConfederationConfig(
            store="memory",
            peers=(1, 2, 3, 4),
            reconciliation_interval=2,
            rounds=3,
            final_reconcile=True,
            schedule_mode=schedule_mode,
            workload=WorkloadConfig(transaction_size=2, seed=11),
        )
        hooks = HookBus()
        log = decision_stream(hooks)
        with Confederation(config, hooks=hooks) as confed:
            if memo_limit is not None:
                confed.store.shared_pair_cache().limit = memo_limit
            confed.run()
            snapshots = {
                p.id: p.instance.snapshot() for p in confed.participants
            }
            open_roots = set()
            for participant in confed.participants:
                open_roots |= set(participant.state.deferred)
            registered = set(confed.store.shared_pair_cache()._entries)
        return log, snapshots, registered, open_roots

    def test_async_reconcile_safe_under_retirement_and_eviction(self):
        """Pipelined reconciles + retirement + a tiny FIFO backstop:
        a reconciling participant must never be handed a retired or
        evicted entry it cannot recover from — decisions stay
        byte-identical to an unbounded graph (eviction only ever costs
        a derivation on the next miss)."""
        # The serial and async schedules interleave differently (two
        # distinct, equally valid schedules), so the pin is per mode:
        # shrinking the graph must change nothing.
        serial_tiny = self._retention_run("serial", memo_limit=2)
        serial_wide = self._retention_run("serial")
        async_tiny = self._retention_run("async", memo_limit=2)
        async_wide = self._retention_run("async")
        assert serial_tiny[0] == serial_wide[0]
        assert serial_tiny[1] == serial_wide[1]
        assert async_tiny[0] == async_wide[0]
        assert async_tiny[1] == async_wide[1]
        # Retention kept up across the pipelined rounds: nothing finally
        # decided by everyone lingers.
        assert set(async_tiny[2]) <= async_tiny[3]

    def test_memo_shrinks_after_a_full_confederation_round(self):
        """End to end: after every peer reconciles everything (a full
        round with a final reconcile pass), the shared graph holds only
        open roots."""
        config = ConfederationConfig(
            store="memory",
            peers=(1, 2, 3),
            reconciliation_interval=2,
            rounds=2,
            final_reconcile=True,
            workload=WorkloadConfig(transaction_size=1, seed=5),
        )
        with Confederation(config) as confed:
            confed.run()
            store = confed.store
            # Only roots some participant still has open may remain:
            # what the graph still registers (edges and derivations).
            open_roots = set()
            for participant in confed.participants:
                open_roots |= set(participant.state.deferred)
            assert set(store.shared_pair_cache()._entries) <= open_roots
            assert store.retired_extension_count() > 0

    def test_the_dht_graph_keeps_only_open_roots_after_a_full_round(self):
        """The DHT's client-centric batches write derivations and edges
        into the driver's one graph; the all-final acknowledgements of
        ``record_decision`` unlink them again."""
        config = ConfederationConfig(
            store="dht",
            store_options={"hosts": 4},
            peers=(1, 2, 3),
            reconciliation_interval=2,
            rounds=2,
            final_reconcile=True,
            workload=WorkloadConfig(transaction_size=1, seed=5),
        )
        with Confederation(config) as confed:
            report = confed.run()
            open_roots = set()
            for participant in confed.participants:
                open_roots |= set(participant.state.deferred)
            registered = set(confed.store._shared_pairs._entries)
        assert report.cache_stats.shipped > 0  # readers adopted from the graph
        assert registered <= open_roots


def scan_checked(store):
    """Check every ``complete_reconciliation`` of a memory store against
    a scan of every participant's record — a root retires once each one
    holds a final verdict on it, and leaves the conflict graph — and
    return the roots each call retired."""
    calls, complete, retire = [], store.complete_reconciliation, store.retire_shared_entries
    graph = store.shared_pair_cache()

    def record(roots):
        calls[-1].extend(roots)
        retire(roots)
        assert graph._entries.keys().isdisjoint(roots)

    def checked(participant, result):
        calls.append([])
        complete(participant, result)
        records = store._participants.values()
        assert calls[-1] == [
            tid
            for tid in sorted(set(result.applied) | set(result.rejected))
            if all(tid in r.applied or tid in r.rejected for r in records)
        ]

    store.retire_shared_entries = record
    store.complete_reconciliation = checked
    return calls


class TestVerdictCounts:
    """The memory store counts final verdicts per open root instead of
    scanning every participant's record per decided root; it must
    retire exactly what the scan would."""

    @pytest.mark.parametrize(
        "seed, schedule",
        [(3, EVALUATION), (17, EVALUATION), (5, CHAIN_SHARING)],
        ids=["3", "17", "5-chain-sharing"],
    )
    def test_retires_what_a_scan_retires(self, seed, schedule):
        schedule = dict(schedule)
        config = ConfederationConfig.evaluation(
            schedule.pop("peers"),
            workload=WorkloadConfig(transaction_size=2, seed=seed),
            **schedule,
        )
        store = MemoryUpdateStore(curated_schema())
        confed = Confederation(config, store=store).open()
        registered = []
        graph = store.shared_pair_cache()
        discard = graph.discard

        def counted(roots):
            registered.extend(tid for tid in roots if tid in graph._entries)
            discard(roots)

        graph.discard = counted
        calls = scan_checked(store)
        confed.run()
        # What the graph held of the retired roots is what it let go.
        assert len(registered) == store.retired_extension_count() > 0
        assert set(registered) <= {tid for call in calls for tid in call}

    def test_a_late_registration_reopens_and_retires_again(self):
        config = ConfederationConfig(
            store="memory",
            peers=(1, 2, 3),
            reconciliation_interval=2,
            rounds=2,
            final_reconcile=True,
            workload=WorkloadConfig(transaction_size=1, seed=5),
        )
        with Confederation(config) as confed:
            calls = scan_checked(confed.store)
            confed.run()
            retired = {tid for call in calls for tid in call}
            assert retired
            policy = TrustPolicy()
            for other in (1, 2, 3):
                policy.trust_participant(other, 1)
            late = confed.add_participant(4, policy)
            del calls[:]
            late.reconcile()
            # The newcomer's verdicts close what everyone else had
            # already decided: those roots retire a second time.
            assert retired & set(calls[-1])

    def test_a_retired_root_decided_again_retires_again(self):
        store = mutual_store(MemoryUpdateStore)
        calls = scan_checked(store)
        txn = TestRetention._publish_one(store)
        store.complete_reconciliation(2, ReconcileResult(recno=1, applied=[txn.tid]))
        store.complete_reconciliation(3, ReconcileResult(recno=1, rejected=[txn.tid]))
        store.complete_reconciliation(3, ReconcileResult(recno=2, applied=[txn.tid]))
        assert calls == [[], [txn.tid], [txn.tid]]


class TestSharedDerivations:
    """An extension is derived once per (root, closure), whoever needs
    it: the first participant to flatten a closure leaves it on the
    conflict graph every batch carries, and the next one adopts it."""

    def _revision_of_an_applied_row(self, store, **options):
        config = ConfederationConfig(
            store=store, peers=(1, 2, 3), store_options=options
        )
        with Confederation.from_config(config, schema=curated_schema()) as confed:
            author, second, third = confed.participants
            held = {}
            confed.hooks.on_cache_stats(
                lambda participant, stats, **_: held.update({participant: stats})
            )
            row = ("rat", "p1", "fn-a")
            author.execute([Insert("F", row, 1)])
            author.publish_and_reconcile()
            for reader in (second, third):
                assert reader.reconcile().accepted  # the base is applied
            author.execute([Modify("F", row, ("rat", "p1", "fn-b"), 1)])
            author.publish_and_reconcile()
            # Each reader has applied the base, so each needs the
            # revision over {revision} alone.
            for reader in (second, third):
                assert reader.reconcile().accepted
            return held[2], held[3]

    def test_second_reader_adopts_the_first_readers_derivation(self):
        for store, options in (("memory", {}), ("central", {}), ("dht", {"hosts": 3})):
            first, second = self._revision_of_an_applied_row(store, **options)
            assert (first.misses, first.shipped) == (1, 0), store
            assert (second.misses, second.shipped) == (0, 1), store

    def test_second_reader_adopts_the_first_readers_edge(self):
        # Two readers defer the same conflicting pair: the first one
        # compares it, the second reads the edge off the shared graph.
        for store, options in (("memory", {}), ("central", {}), ("dht", {"hosts": 3})):
            config = ConfederationConfig(
                store=store, peers=(1, 2, 3, 4), store_options=options
            )
            with Confederation.from_config(config, schema=curated_schema()) as confed:
                held = {}
                confed.hooks.on_cache_stats(
                    lambda participant, stats, **_: held.update({participant: stats})
                )
                for author, function in zip(confed.participants[:2], ("immune", "cell-resp")):
                    author.execute([Insert("F", ("rat", "prot1", function), author.id)])
                    author.publish()
                for reader in confed.participants[2:]:
                    assert len(reader.reconcile().deferred) == 2, store
            assert (held[3].pair_hits, held[3].pair_misses) == (0, 1), store
            assert (held[4].pair_hits, held[4].pair_misses) == (1, 0), store
