"""Tests for the incremental reconciliation caches (repro.core.cache).

Covers the cache contract directly (hits, revalidation, invalidation on
applied-set growth, pruning) and its integration with the engine: the
cached engine must decide as the reference oracle does across deferral
and acceptance cycles, ``compute_update_extension`` must trace each
footprint exactly once, and ``UpdateSoftState`` must not recompute
extensions it already computed in the same ``reconcile`` call.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.core.cache as cache_module
from repro.core import ParticipantState, Reconciler
from repro.core.cache import CacheStats, ConflictGraph, ExtensionCache
from repro.core.extensions import (
    RelevantTransaction,
    UpdateExtension,
    compute_update_extension,
)
from repro.errors import FlattenError
from repro.instance import Instance
from repro.model import Insert, Modify, make_transaction
from repro.model.flatten import trace_runs

from tests.core.helpers import GraphBuilder
from tests.reference.mirror import assert_agree
from tests.reference.oracle import Oracle, Peer


RAT1 = ("rat", "prot1", "cell-metab")
RAT1_IMMUNE = ("rat", "prot1", "immune")
MOUSE2 = ("mouse", "prot2", "immune")
MOUSE2_RESP = ("mouse", "prot2", "cell-resp")
MOUSE3 = ("mouse", "prot3", "cell-metab")


def make_reconciler(schema, participant):
    instance = Instance(schema)
    state = ParticipantState(participant)
    return Reconciler(schema, instance, state), instance, state


def relevant(builder, txn, priority=1):
    return RelevantTransaction(
        transaction=txn,
        priority=priority,
        order=builder.graph.order_of(txn.tid),
    )


class TestExtensionCache:
    def test_hit_on_same_version(self, schema):
        builder = GraphBuilder()
        txn = make_transaction(2, 0, [Insert("F", MOUSE2, 2)])
        builder.add(txn)
        root = relevant(builder, txn)
        cache = ExtensionCache()
        first = cache.get_or_compute(schema, builder.graph, root, set(), 0)
        second = cache.get_or_compute(schema, builder.graph, root, set(), 0)
        assert second is first
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_revalidation_when_applied_grew_elsewhere(self, schema):
        """Applied grew, but not with a member of the cached closure: the
        cached extension is provably unchanged and is reused."""
        builder = GraphBuilder()
        txn = make_transaction(2, 0, [Insert("F", MOUSE2, 2)])
        other = make_transaction(3, 0, [Insert("F", MOUSE3, 3)])
        builder.add(txn)
        builder.add(other)
        root = relevant(builder, txn)
        cache = ExtensionCache()
        first = cache.get_or_compute(schema, builder.graph, root, set(), 0)
        second = cache.get_or_compute(
            schema, builder.graph, root, {other.tid}, 1
        )
        assert second is first
        assert cache.stats.revalidations == 1

    def test_invalidation_when_member_applied(self, schema):
        """A member of the closure became applied: the extension must be
        recomputed (it now excludes that member)."""
        builder = GraphBuilder()
        base = make_transaction(3, 0, [Insert("F", RAT1, 3)])
        revision = make_transaction(3, 1, [Modify("F", RAT1, RAT1_IMMUNE, 3)])
        builder.add(base)
        builder.add(revision, antecedents=[base.tid])
        root = relevant(builder, revision)
        cache = ExtensionCache()
        first = cache.get_or_compute(schema, builder.graph, root, set(), 0)
        assert set(first.members) == {base.tid, revision.tid}
        second = cache.get_or_compute(
            schema, builder.graph, root, {base.tid}, 1
        )
        assert second is not first
        assert set(second.members) == {revision.tid}
        assert cache.stats.misses == 2
        # And the recomputed entry matches a fresh computation exactly.
        fresh = compute_update_extension(
            schema, builder.graph, root, {base.tid}
        )
        assert second.members == fresh.members
        assert second.operations == fresh.operations
        assert second.touched == fresh.touched

    def test_prune_drops_unlisted_roots(self, schema):
        builder = GraphBuilder()
        txn = make_transaction(2, 0, [Insert("F", MOUSE2, 2)])
        builder.add(txn)
        root = relevant(builder, txn)
        cache = ExtensionCache()
        cache.get_or_compute(schema, builder.graph, root, set(), 0)
        assert len(cache) == 1
        cache.prune([])
        assert len(cache) == 0

    def test_adopts_a_shipped_extension_only_when_it_is_exact(self, schema):
        """The shipped context-free extension is adopted (re-priced) when
        none of its members is applied — it is then what a derivation
        from scratch gives — and derived locally otherwise."""
        builder = GraphBuilder()
        base = make_transaction(3, 0, [Insert("F", RAT1, 3)])
        revision = make_transaction(3, 1, [Modify("F", RAT1, RAT1_IMMUNE, 3)])
        builder.add(base)
        builder.add(revision, antecedents=[base.tid])
        root = relevant(builder, revision, priority=2)
        shipped = compute_update_extension(
            schema, builder.graph, relevant(builder, revision, 1), set()
        )

        cache = ExtensionCache()
        adopted = cache.get_or_compute(
            schema, builder.graph, root, set(), 0, shipped=shipped
        )
        assert adopted.operations is shipped.operations
        assert adopted.priority == 2 and shipped.priority == 1
        assert (cache.stats.shipped, cache.stats.misses) == (1, 0)
        again = cache.get_or_compute(
            schema, builder.graph, root, set(), 0, shipped=shipped
        )
        assert again is adopted and cache.stats.hits == 1

        derived = ExtensionCache()
        local = derived.get_or_compute(
            schema, builder.graph, root, {base.tid}, 1, shipped=shipped
        )
        assert set(local.members) == {revision.tid}
        assert (derived.stats.shipped, derived.stats.misses) == (0, 1)

        scratch = compute_update_extension(schema, builder.graph, root, set())
        assert scratch == adopted and scratch.operations is not adopted.operations


class TestInternedDerivations:
    """One derivation per (root, closure), confederation-wide: the
    conflict graph a batch carries is asked before anything is
    flattened."""

    def _revision_over_an_applied_base(self, schema):
        builder = GraphBuilder()
        base = make_transaction(3, 0, [Insert("F", RAT1, 3)])
        revision = make_transaction(3, 1, [Modify("F", RAT1, RAT1_IMMUNE, 3)])
        builder.add(base)
        builder.add(revision, antecedents=[base.tid])
        # What the store ships covers the base, which everyone below
        # has applied: each must derive the root over {revision} alone.
        shipped = compute_update_extension(
            schema, builder.graph, relevant(builder, revision), set()
        )
        return builder, base, revision, shipped

    def test_second_participant_adopts_what_the_first_derived(self, schema):
        builder, base, revision, shipped = self._revision_over_an_applied_base(schema)
        shared = ConflictGraph()
        first, second, third = ExtensionCache(), ExtensionCache(), ExtensionCache()

        def derive(cache, priority):
            return cache.get_or_compute(
                schema, builder.graph, relevant(builder, revision, priority),
                {base.tid}, 1, shipped=shipped, shared=shared,
            )

        origin = derive(first, 1)
        assert origin.members == (revision.tid,) and origin is not shipped
        assert (first.stats.misses, first.stats.shipped) == (1, 0)
        # Same (root, closure), same price: the very same object.
        assert derive(second, 1) is origin
        assert (second.stats.misses, second.stats.shipped) == (0, 1)
        # Another price: a re-priced twin of it, sharing what it derived.
        twin = derive(third, 2)
        assert twin is not origin and twin._origin is origin
        assert twin.priority == 2 and origin.priority == 1
        assert twin.operations is origin.operations
        assert (third.stats.misses, third.stats.shipped) == (0, 1)
        assert len(shared) == 1

    def test_another_closure_of_the_same_root_is_another_derivation(self, schema):
        builder, base, revision, shipped = self._revision_over_an_applied_base(schema)
        shared = ConflictGraph()
        root = relevant(builder, revision)
        cut = ExtensionCache().get_or_compute(
            schema, builder.graph, root, {base.tid}, 1, shared=shared
        )
        # No shipped extension to adopt: the full closure is derived —
        # and registered beside the cut one, not confused with it.
        full = ExtensionCache().get_or_compute(
            schema, builder.graph, root, set(), 0, shared=shared
        )
        assert full.members == (base.tid, revision.tid) and full is not cut
        assert shared.derived(revision.tid, (revision.tid,)) is cut
        assert shared.derived(revision.tid, full.members) is full
        assert shared.derived(revision.tid, (base.tid,)) is None
        assert len(shared) == 1  # one root

    def test_the_interned_derivation_is_the_one_from_scratch(self, schema):
        builder, base, revision, shipped = self._revision_over_an_applied_base(schema)
        shared = ConflictGraph()
        root = relevant(builder, revision)
        origin = ExtensionCache().get_or_compute(
            schema, builder.graph, root, {base.tid}, 1, shipped=shipped, shared=shared
        )
        fresh = compute_update_extension(schema, builder.graph, root, {base.tid})
        assert fresh == origin and fresh is not origin
        assert fresh._origin is None and fresh._hood is None  # registered nowhere
        assert shared.derived(revision.tid, (revision.tid,)) is origin

    def test_a_chain_that_does_not_flatten_is_never_registered(self, schema):
        builder = GraphBuilder()
        # Two inserts of one key in one chain: internally inconsistent.
        base = make_transaction(3, 0, [Insert("F", RAT1, 3)])
        clash = make_transaction(3, 1, [Insert("F", RAT1_IMMUNE, 3)])
        builder.add(base)
        builder.add(clash, antecedents=[base.tid])
        shared = ConflictGraph()
        for _ in range(2):
            with pytest.raises(FlattenError):
                ExtensionCache().get_or_compute(
                    schema, builder.graph, relevant(builder, clash), set(), 0, shared=shared
                )
        assert len(shared) == 0


class _Tracked(UpdateExtension):
    """An extension a test can hold a weak reference to."""

    __slots__ = ("__weakref__",)


class TestConflictGraph:
    POINTS = (("insert/insert", ("F", ("mouse", "prot2"))),)

    def _extensions(self, schema, count=2):
        builder = GraphBuilder()
        extensions = []
        for participant in range(1, count + 1):
            txn = make_transaction(
                participant, 0, [Insert("F", ("mouse", "prot2", f"fn{participant}"), participant)]
            )
            builder.add(txn)
            plain = compute_update_extension(
                schema, builder.graph, relevant(builder, txn), set()
            )
            extensions.append(
                _Tracked(plain.root, plain.members, plain.operations, plain.touched, 1)
            )
        return extensions

    def test_an_edge_hangs_on_both_objects_until_either_is_discarded(self, schema):
        a, b = self._extensions(schema)
        graph = ConflictGraph()
        assert a._hood is None and b._hood is None  # registered nowhere
        graph.link(a, b, self.POINTS)
        assert a._hood == {id(b): (b, self.POINTS)}
        assert b._hood == {id(a): (a, self.POINTS)}
        assert len(graph) == 2
        # A re-priced twin carries no edges of its own: its origin's do.
        twin = b.repriced(7)
        assert twin._hood is None and twin._origin is b
        graph.discard([b.root])
        assert b._hood is None and a._hood == {} and len(graph) == 1
        graph.discard([b.root, a.root])  # idempotent
        assert a._hood is None and len(graph) == 0

    def test_no_conflict_is_an_edge_too(self, schema):
        a, b = self._extensions(schema)
        graph = ConflictGraph()
        graph.link(a, b, ())
        assert a._hood[id(b)] == (b, ()) and b._hood[id(a)] == (a, ())

    def test_a_discarded_object_is_referenced_by_no_neighbourhood(self, schema):
        a, b, c = self._extensions(schema, 3)
        graph = ConflictGraph()
        graph.link(a, b, self.POINTS)
        graph.link(b, c, ())
        graph.link(a, c, self.POINTS)
        gone = weakref.ref(b)
        graph.discard([b.root])
        gc.disable()  # reference counts alone must let it go
        try:
            del b
            assert gone() is None
        finally:
            gc.enable()
        assert set(a._hood) == {id(c)} and set(c._hood) == {id(a)}

    def test_the_limit_evicts_whole_roots_oldest_first(self, schema):
        a, b, c = self._extensions(schema, 3)
        graph = ConflictGraph(limit=2)
        graph.link(a, b, self.POINTS)
        # Admitting c evicts a — with its edge, at both ends — and the
        # new edge stands.
        graph.link(b, c, ())
        assert len(graph) == 2 and a._hood is None
        assert b._hood == {id(c): (c, ())} and c._hood == {id(b): (b, ())}
        # An edge whose one end the backstop evicts to admit the other
        # is not kept half-written.
        tiny = ConflictGraph(limit=1)
        d, e = self._extensions(schema)
        tiny.link(d, e, self.POINTS)
        assert d._hood is None and e._hood == {} and len(tiny) == 1


class TestCacheStats:
    def test_hit_rate_and_delta(self):
        stats = CacheStats(hits=3, misses=1, revalidations=2)
        assert stats.reuses == 5
        assert stats.hit_rate == pytest.approx(5 / 6)
        delta = stats.minus(CacheStats(hits=1, misses=1))
        assert delta.hits == 2 and delta.misses == 0
        assert CacheStats().hit_rate == 0.0

    def test_as_dict_round_trip(self):
        stats = CacheStats(hits=1, misses=1, pair_hits=2, pair_misses=2)
        d = stats.as_dict()
        assert d["hits"] == 1 and d["pair_hit_rate"] == 0.5


class TestEngineIntegration:
    def _conflicting_pair_batchset(self, schema):
        """Two same-priority roots that conflict — both get deferred and
        reconsidered on every subsequent reconcile."""
        builder = GraphBuilder()
        a = make_transaction(2, 0, [Insert("F", MOUSE2, 2)])
        b = make_transaction(3, 0, [Insert("F", MOUSE2_RESP, 3)])
        builder.add(a)
        builder.add(b)
        return builder, a, b

    def test_deferred_roots_hit_the_cache_across_epochs(self, schema):
        reconciler, _instance, state = make_reconciler(schema, 1)
        builder, a, b = self._conflicting_pair_batchset(schema)
        first = reconciler.reconcile(builder.batch(1, [(a, 1), (b, 1)]))
        assert set(first.deferred) == {a.tid, b.tid}
        assert first.cache_stats.misses == 2  # cold: both roots computed

        # Reconsidering the same deferred pair computes nothing new.
        second = reconciler.reconcile(builder.batch(2, []))
        assert set(second.deferred) == {a.tid, b.tid}
        assert second.cache_stats.misses == 0
        assert second.cache_stats.reuses > 0
        assert second.cache_stats.pair_misses == 0

    def test_soft_state_reuses_epoch_extensions(self, schema, monkeypatch):
        """Zero extension recomputations in UpdateSoftState for roots
        already computed in the same reconcile call."""
        calls = []
        real = cache_module.compute_update_extension

        def counting(schema_, graph, root, applied):
            calls.append(root.tid)
            return real(schema_, graph, root, applied)

        monkeypatch.setattr(
            cache_module, "compute_update_extension", counting
        )
        reconciler, _instance, _state = make_reconciler(schema, 1)
        builder, a, b = self._conflicting_pair_batchset(schema)
        reconciler.reconcile(builder.batch(1, [(a, 1), (b, 1)]))
        # Each deferred root was computed exactly once, in the main loop;
        # UpdateSoftState reused both extensions.
        assert sorted(calls) == sorted([a.tid, b.tid])

    def test_compute_update_extension_traces_once_per_root(self, schema):
        reconciler, _instance, _state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        # Multi-update footprints so the single-update fast path does not
        # kick in: each root's extension must be traced exactly once — not
        # twice (flatten + keys_touched) as in the seed implementation.
        a = make_transaction(
            2, 0, [Insert("F", MOUSE2, 2), Insert("F", MOUSE3, 2)]
        )
        b = make_transaction(
            3,
            0,
            [Insert("F", MOUSE2_RESP, 3), Insert("F", ("mouse", "p8", "x"), 3)],
        )
        builder.add(a)
        builder.add(b)
        before = trace_runs()
        reconciler.reconcile(builder.batch(1, [(a, 1), (b, 1)]))
        # One trace per root extension; the pairwise conflict check and
        # UpdateSoftState reuse the flattened operations without retracing.
        # Nothing was accepted, so no application-time flattening adds
        # traces.
        assert trace_runs() - before == 2

    def test_cached_engine_matches_the_oracle_across_cycles(self, schema):
        """Deferral → new epoch → acceptance cycles decide as the
        reference oracle does, run after run."""
        reconciler, instance, state = make_reconciler(schema, 1)
        builder, a, b = self._conflicting_pair_batchset(schema)
        oracle = Oracle(schema)
        peer = Peer(oracle, 1, priority=None)  # handed its roots below
        for txn in (a, b):
            oracle.publish(txn.tid, txn.updates)
        result = reconciler.reconcile(builder.batch(1, [(a, 1), (b, 1)]))
        assert set(result.deferred) == {a.tid, b.tid}
        assert_agree(state, instance, peer, result, peer.run({a.tid: 1, b.tid: 1}))
        # A root at a higher priority arrives, then a run with nothing new.
        c = make_transaction(4, 0, [Insert("F", MOUSE3, 4)])
        builder.add(c)
        oracle.publish(c.tid, c.updates)
        result = reconciler.reconcile(builder.batch(2, [(c, 2)]))
        assert result.accepted == [c.tid]
        assert_agree(state, instance, peer, result, peer.run({c.tid: 2}))
        result = reconciler.reconcile(builder.batch(3, []))
        assert_agree(state, instance, peer, result, peer.run({}))

    def test_acceptance_invalidates_dependent_deferred_extension(self, schema):
        """When an antecedent of a deferred root is applied, the deferred
        root's cached extension is recomputed against the new applied set
        (and shrinks accordingly)."""
        reconciler, instance, state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        target_x = ("mouse", "prot9", "fn-x")
        target_y = ("mouse", "prot9", "fn-y")
        base = make_transaction(3, 0, [Insert("F", MOUSE3, 3)])
        revision = make_transaction(3, 1, [Modify("F", MOUSE3, target_x, 3)])
        rival = make_transaction(2, 0, [Insert("F", target_y, 2)])
        builder.add(base)
        builder.add(revision, antecedents=[base.tid])
        builder.add(rival)
        # revision's extension (base + revision) and rival's conflict at
        # the mouse/prot9 target key, so both defer; base rides in
        # revision's extension but is not applied yet.
        r1 = reconciler.reconcile(builder.batch(1, [(revision, 1), (rival, 1)]))
        assert set(r1.deferred) == {revision.tid, rival.tid}
        cached = reconciler.cache.lookup(
            revision.tid, state.applied_version, state.applied
        )
        assert cached is not None
        assert base.tid in cached.members
        # base becomes applied (e.g. through another accepted chain): the
        # cached closure contains an applied member and must be rebuilt.
        instance.apply_all([Insert("F", MOUSE3, 3)])
        state.record_applied([base.tid])
        assert (
            reconciler.cache.lookup(
                revision.tid, state.applied_version, state.applied
            )
            is None
        )
        reconciler.reconcile(builder.batch(2, []))
        refreshed = reconciler.cache.lookup(
            revision.tid, state.applied_version, state.applied
        )
        assert refreshed is not None
        assert refreshed is not cached
        assert base.tid not in refreshed.members
        # The rebuilt extension equals a fresh computation.
        root = RelevantTransaction(
            transaction=revision,
            priority=1,
            order=builder.graph.order_of(revision.tid),
        )
        fresh = compute_update_extension(
            schema, builder.graph, root, state.applied
        )
        assert refreshed.operations == fresh.operations
        assert refreshed.touched == fresh.touched

    def test_result_reports_cache_stats(self, schema):
        reconciler, _instance, _state = make_reconciler(schema, 1)
        builder, a, b = self._conflicting_pair_batchset(schema)
        result = reconciler.reconcile(builder.batch(1, [(a, 1), (b, 1)]))
        assert result.cache_stats is not None
        assert result.cache_stats.reuses == 0


class TestContextFreeShipping:
    """Store-shipped context-free extensions and the shared pair memo."""

    def _store(self):
        from repro.policy.acceptance import TrustPolicy
        from repro.store.memory import MemoryUpdateStore
        from repro.workload.generator import curated_schema

        store = MemoryUpdateStore(curated_schema())
        for pid in (1, 2, 3):
            policy = TrustPolicy()
            for other in (1, 2, 3):
                if other != pid:
                    policy.trust_participant(other, 1)
            store.register_participant(pid, policy)
        return store

    def test_context_free_extension_computed_once(self):
        from repro.model.transactions import Transaction, TransactionId

        store = self._store()
        txn = Transaction(
            TransactionId(1, 0),
            (Insert("F", ("human", "p1", "fn-x"), 1),),
        )
        store.publish(1, [txn])
        batch2 = store.begin_reconciliation(2)
        batch3 = store.begin_reconciliation(3)
        assert batch2.extensions is not None
        assert batch3.extensions is not None
        # Same object for every participant: derived once, shared.
        assert batch2.extensions[txn.tid] is batch3.extensions[txn.tid]
        assert batch2.pair_cache is batch3.pair_cache

    def test_engine_adopts_shipped_extension_without_computing(self, monkeypatch):
        from repro.model.transactions import Transaction, TransactionId

        calls = []
        real = cache_module.compute_update_extension

        def counting(schema_, graph, root, applied):
            calls.append(root.tid)
            return real(schema_, graph, root, applied)

        monkeypatch.setattr(cache_module, "compute_update_extension", counting)

        store = self._store()
        # Attach to a pre-registered participant directly.
        from repro.cdss.participant import Participant
        from repro.policy.acceptance import TrustPolicy

        policy = TrustPolicy()
        policy.trust_participant(1, 1)
        receiver = Participant(2, store, policy, register=False)
        txn = Transaction(
            TransactionId(1, 0),
            (Insert("F", ("human", "p2", "fn-y"), 1),),
        )
        store.publish(1, [txn])
        calls.clear()
        result = receiver.reconcile()
        assert txn.tid in result.accepted
        # The extension came from the store's context-free shipment: the
        # engine computed nothing locally.
        assert calls == []
        assert receiver.reconciler.cache.stats.shipped == 1

    def test_shipped_extension_rejected_when_closure_applied(self):
        from repro.cdss.participant import Participant
        from repro.model.transactions import Transaction, TransactionId
        from repro.policy.acceptance import TrustPolicy

        store = self._store()
        policy = TrustPolicy()
        policy.trust_participant(1, 1)
        receiver = Participant(2, store, policy, register=False)

        base_row = ("human", "p3", "fn-a")
        revised_row = ("human", "p3", "fn-b")
        base = Transaction(TransactionId(1, 0), (Insert("F", base_row, 1),))
        store.publish(1, [base])
        first = receiver.reconcile()
        assert base.tid in first.accepted

        revision = Transaction(
            TransactionId(1, 1), (Modify("F", base_row, revised_row, 1),)
        )
        store.publish(1, [revision])
        second = receiver.reconcile()
        assert revision.tid in second.accepted
        # The context-free extension of the revision includes base, which
        # the receiver already applied — it must have been recomputed
        # locally (shipped counter unchanged from the first adoption).
        assert receiver.instance.contains_row("F", revised_row)
        assert not receiver.instance.contains_row("F", base_row)
