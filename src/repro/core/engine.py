"""The client-centric ``ReconcileUpdates`` algorithm (Figures 4 and 5).

One :class:`Reconciler` belongs to one participant.  Each call to
:meth:`Reconciler.reconcile` processes one reconciliation batch:

1. merge the batch's transactions into the participant's graph (its
   open frontier: entries leave again as step 6 applies them) and
   gather the roots to consider — newly delivered trusted transactions
   plus every previously deferred transaction (they are reconsidered on
   every run, as in the paper);
2. compute each root's flattened update extension (Definition 3);
3. ``CheckState`` — defer roots touching dirty values, reject roots whose
   extension contains an already-rejected transaction, is incompatible
   with the local instance, or conflicts with the participant's own
   just-published delta (flattened when the first root gets that far);
4. ``FindConflicts`` — pairwise direct conflicts (Definition 4), skipping
   subsumed pairs;
5. ``DoGroup`` per priority level in decreasing order — reject roots that
   conflict with accepted higher-priority roots, defer roots that conflict
   with deferred higher-priority roots, and defer both sides of any
   conflict inside one priority level;
6. apply the accepted roots' extensions (recomputing against the ``Used``
   set, where it holds a member, so overlapping antecedents are applied
   exactly once);
7. ``UpdateSoftState`` — rebuild the dirty-value set and conflict groups
   from the transactions that remain deferred.

The dirty-value test in step 3 applies only to roots that were *not*
already deferred: previously deferred roots are exactly the transactions
whose keys are dirty, and they must be re-evaluated on their own merits so
that conflict resolution can eventually accept them.

Caching (the incremental hot path)
----------------------------------

Steps 2, 4, and 7 are served by the incremental machinery of
:mod:`repro.core.cache` and
:class:`repro.core.conflicts.IncrementalConflictIndex` so repeated
reconciliations pay only for what changed since the last one:

* update extensions are memoized against
  :attr:`ParticipantState.applied_version`; a previously deferred root
  whose antecedent closure is untouched by newly applied transactions is
  an O(1) hit (or an O(|members|) revalidation), both in step 2 and again
  in ``UpdateSoftState`` — the seed recomputed every deferred extension
  twice per epoch;
* for roots the store shipped a *context-free* extension for (flattened
  against an empty applied set, derived once per published transaction
  confederation-wide), the engine adopts the shipped object whenever its
  member closure is disjoint from the local applied set — the condition
  under which it provably equals the local computation;
* ``FindConflicts`` is one scanner, the incremental index (a store
  assembling batches keeps one per participant too): only pairs
  involving an extension that changed since the previous epoch are
  examined, ``UpdateSoftState`` reuses the same index (shrunk to the
  deferred roots), and the store's one conflict graph, on every batch,
  is read first — the first index anywhere to hold two extension
  objects leaves their edge on them — and asked for an extension
  another participant already derived over the same closure;
* ``can_apply_set`` verdicts are memoized against the instance's
  mutation counter, so unchanged deferred roots skip re-validation
  against an unchanged replica; a check that does run, and the
  application after it, probe the extension's compiled footprint
  (:meth:`UpdateExtension.footprint`) instead of re-deriving keys, row
  validity and foreign-key targets from its operations.

Cache validity never depends on heuristics: extensions are exact for a
given applied set (reuse only when provably unchanged), conflict points
depend only on the two extensions compared (validated by object
identity), and applicability is versioned by instance mutations.
Decisions are therefore byte-identical to an uncached run — the perf
benchmark (``benchmarks/test_perf_engine.py``) pins this.  Per-run
counter deltas are exposed on :attr:`ReconcileResult.cache_stats`.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConstraintViolation, FlattenError
from repro.instance.base import Instance
from repro.model.flatten import flatten
from repro.model.schema import Schema
from repro.model.transactions import TransactionId
from repro.model.tuples import QualifiedKey
from repro.model.updates import Update

from repro.core.cache import ExtensionCache
from repro.core.conflicts import (
    IncrementalConflictIndex,
    _conflict_points,
    build_conflict_groups,
)
from repro.core.decisions import Decision, ReconcileResult
from repro.core.extensions import (
    ReconciliationBatch,
    RelevantTransaction,
    UpdateExtension,
    index_by_key,
    update_footprint,
)
from repro.core.state import ParticipantState


class Reconciler:
    """Runs client-centric reconciliation for one participant."""

    def __init__(
        self,
        schema: Schema,
        instance: Instance,
        state: ParticipantState,
        cache: Optional[ExtensionCache] = None,
        hooks: Optional[object] = None,
    ) -> None:
        """``cache`` defaults to a fresh enabled :class:`ExtensionCache`;
        pass ``ExtensionCache(enabled=False)`` to run every epoch from
        scratch (the benchmark's uncached baseline).  ``hooks`` is an
        optional event bus (:class:`repro.confed.hooks.HookBus`, duck-
        typed to keep the engine free of upward imports); when present
        the engine emits ``decision``, ``conflict``, and ``cache_stats``
        events at the end of every reconciliation."""
        self._schema = schema
        self._instance = instance
        self._state = state
        self._hooks = hooks
        self._cache = cache if cache is not None else ExtensionCache()
        self._conflict_index = IncrementalConflictIndex(
            enabled=self._cache.enabled, stats=self._cache.stats
        )
        # ``can_apply_set`` verdicts per root: (extension object, instance
        # mutation count, verdict).  Exact — the verdict is a pure
        # function of the extension's operations and the instance state,
        # and both are versioned.
        self._applicability: Dict[
            TransactionId, Tuple[UpdateExtension, int, bool]
        ] = {}
        # The conflict graph of the batch being reconciled, if any.
        self._shared_pairs = None

    @property
    def state(self) -> ParticipantState:
        """The participant's reconciliation bookkeeping."""
        return self._state

    @property
    def cache(self) -> ExtensionCache:
        """The participant's extension cache (stats live here)."""
        return self._cache

    # ------------------------------------------------------------------

    def reconcile(
        self,
        batch: ReconciliationBatch,
        own_updates: Sequence[Update] = (),
    ) -> ReconcileResult:
        """Run one reconciliation (the paper's ``ReconcileUpdates``).

        ``own_updates`` is the participant's own delta for this epoch —
        updates it published together with this reconciliation, already in
        its instance.  Extensions conflicting with it are rejected: the
        participant always prefers its own version (CheckState line 7).
        """
        state = self._state
        state.graph.merge(batch.graph)

        previously_deferred = set(state.deferred)
        roots = self._gather_roots(batch)
        result = ReconcileResult(recno=batch.recno)
        stats_before = self._cache.stats.snapshot()

        extensions: Dict[TransactionId, UpdateExtension] = {}
        decision: Dict[TransactionId, Decision] = {}

        @functools.cache
        def own() -> Dict[QualifiedKey, List[Update]]:
            """CheckState line 7's operand — the flattened own delta,
            indexed by the keys it touches — traced by the first root
            that reaches that test: a run none of whose roots gets there
            never is."""
            delta = flatten(self._schema, own_updates) if own_updates else []
            return index_by_key(self._schema, delta)

        # Figure 4 lines 5-8: flattened extensions and CheckState.  In
        # network-centric mode the store precomputed the extensions (and
        # must have covered every root, deferred ones included); any root
        # it missed falls back to local computation.  Extensions for
        # previously deferred roots are usually cache hits: they were
        # stored last epoch and stay exact while no member of their
        # antecedent closure becomes applied.  In client-centric mode the
        # store may still ship *context-free* extensions (computed once
        # per published transaction); one is adopted when this
        # participant's applied set is disjoint from its closure — the
        # condition under which it equals the locally computed extension.
        # The serving store's declared capabilities decide whether its
        # shipped payloads are eligible at all (absent flags — batches
        # built by hand in tests — are permissive).
        ships_context_free = getattr(batch.capabilities, "ships_context_free", True)
        shares = self._cache.enabled and getattr(batch.capabilities, "shared_pair_memo", True)
        self._shared_pairs = batch.pair_cache if shares else None
        precomputed = batch.extensions if batch.network_centric else {}
        shipped = (
            batch.extensions or {}
            if ships_context_free and not batch.network_centric
            else {}
        )
        for root in roots:
            extension = precomputed.get(root.tid)
            if extension is not None:
                # Adopted without re-deriving: the store assembled this
                # batch per participant, so the extension is exact for
                # our applied set.  Count it with the shipped
                # context-free adoptions — both are local computations
                # the store saved us.
                self._cache.stats.shipped += 1
                self._cache.store(root.tid, state.applied_version, extension)
            else:
                try:
                    extension = self._cache.get_or_compute(
                        self._schema,
                        state.graph,
                        root,
                        state.applied,
                        state.applied_version,
                        shipped=shipped.get(root.tid),
                        shared=self._shared_pairs,
                    )
                except FlattenError:
                    # An internally inconsistent chain can never be applied.
                    decision[root.tid] = Decision.REJECT
                    continue
            extensions[root.tid] = extension
            decision[root.tid] = self._check_state(
                extension, own, dirty_exempt=root.tid in previously_deferred
            )

        # Figure 4 line 9 (store-side in network-centric mode).  The
        # incremental index restricts the pairwise work to pairs involving
        # at least one extension that changed since the previous epoch.
        if batch.network_centric and set(batch.conflicts) >= set(extensions):
            adjacency = batch.conflicts
        else:
            analysis = self._conflict_index.update(
                self._schema, state.graph, extensions, self._shared_pairs
            )
            adjacency = analysis.adjacency

        self._do_groups(roots, adjacency, decision)

        # Figure 4 lines 13-19: record decisions and apply accepted roots.
        self._apply_accepted(roots, extensions, decision, result)

        # Bookkeeping for rejected and deferred roots.  A root that was
        # rejected or deferred *as a proposal* may still have been applied
        # as a member of another accepted extension in this same run (its
        # intermediate state was revised away by a longer trusted chain);
        # "applied" is then the operative verdict — Definition 5 only
        # excludes rejections recorded in earlier epochs.
        for root in roots:
            if root.tid in state.applied:
                continue
            verdict = decision.get(root.tid)
            if verdict is Decision.REJECT:
                state.record_rejected([root.tid])
                result.rejected.append(root.tid)
            elif verdict is Decision.DEFER:
                state.record_deferred(root, batch.recno)
                result.deferred.append(root.tid)
        result.decisions = dict(decision)

        # Figure 4 line 21: UpdateSoftState, reusing this epoch's
        # extensions and conflict analysis wherever they are still exact.
        self._update_soft_state(result)

        # The extension cache only ever needs the still-deferred roots
        # again (the conflict index pruned itself to the deferred set
        # inside UpdateSoftState).
        self._cache.prune(state.deferred)
        for tid in [t for t in self._applicability if t not in state.deferred]:
            del self._applicability[tid]
        result.cache_stats = self._cache.stats.minus(stats_before)

        state.last_recno = batch.recno
        self._emit_events(roots, decision, result)
        return result

    def _emit_events(
        self,
        roots: Sequence[RelevantTransaction],
        decision: Dict[TransactionId, Decision],
        result: ReconcileResult,
    ) -> None:
        """Emit per-run events onto the hook bus, if one is attached.

        Ordering is deterministic: one ``decision`` event per root in
        publish order, then one ``conflict`` event per open conflict
        group (stable group order), then a single ``cache_stats`` event
        with this run's counter delta.
        """
        hooks = self._hooks
        if hooks is None:
            return
        state = self._state
        if hooks.has("decision"):
            for root in roots:  # ``_gather_roots`` sorted them
                verdict = decision.get(root.tid)
                if verdict is None:
                    continue
                hooks.emit(
                    "decision",
                    participant=state.participant,
                    recno=result.recno,
                    tid=root.tid,
                    decision=verdict,
                )
        if hooks.has("conflict"):
            for group in state.open_conflicts():
                hooks.emit(
                    "conflict",
                    participant=state.participant,
                    recno=result.recno,
                    group=group,
                )
        hooks.emit(
            "cache_stats",
            participant=state.participant,
            recno=result.recno,
            stats=result.cache_stats,
        )

    # ------------------------------------------------------------------
    # Step 1: roots

    def _gather_roots(
        self, batch: ReconciliationBatch
    ) -> List[RelevantTransaction]:
        """New trusted roots plus reconsidered deferred roots, in order."""
        state = self._state
        roots = {root.tid: root for root in state.deferred_roots()}
        for root in batch.roots:
            if state.is_decided(root.tid):
                continue  # the store should not re-deliver, but be safe
            roots.setdefault(root.tid, root)
        return sorted(roots.values(), key=lambda r: r.order)

    # ------------------------------------------------------------------
    # Step 3: CheckState (Figure 5)

    def _check_state(
        self,
        extension: UpdateExtension,
        own: Callable[[], Dict[QualifiedKey, List[Update]]],
        dirty_exempt: bool,
    ) -> Decision:
        state = self._state
        dirty = state.dirty_keys
        if not dirty_exempt and dirty and not extension.touched.isdisjoint(dirty):
            return Decision.DEFER
        if not extension.member_set().isdisjoint(state.rejected):
            return Decision.REJECT
        if not self._can_apply(extension):
            return Decision.REJECT
        # Own-delta conflicts require a shared key: past the key test, the
        # same keyed comparison FindConflicts makes between two extensions.
        own_index = own()
        if not extension.touched.isdisjoint(own_index) and _conflict_points(
            self._schema, extension.key_index(self._schema), own_index
        ):
            return Decision.REJECT
        return Decision.ACCEPT

    def _can_apply(self, extension: UpdateExtension) -> bool:
        """Memoized ``can_apply_set`` for one extension.

        Deferred roots are re-checked on every epoch; while neither their
        extension object nor the instance changed, the verdict cannot
        change either.  Disabled together with the extension cache so the
        uncached baseline re-validates like the seed did.
        """
        version = self._instance.mutation_count
        memo = self._applicability.get(extension.root)
        if memo is None or memo[0] is not extension or memo[1] != version:
            verdict = self._instance.can_apply_set(extension.footprint(self._schema))
            memo = (extension, version, verdict)
            if self._cache.enabled:
                self._applicability[extension.root] = memo
        return memo[2]

    # ------------------------------------------------------------------
    # Step 5: DoGroup (Figure 5)

    def _do_groups(
        self,
        roots: Sequence[RelevantTransaction],
        conflicts: Dict[TransactionId, Set[TransactionId]],
        decision: Dict[TransactionId, Decision],
    ) -> None:
        """Figure 4 lines 10-12: ``DoGroup`` per priority level, greedy
        by decreasing priority.  The roots are bucketed by level once;
        each level is handed its own tids and those of every level
        above it."""
        levels: Dict[int, List[TransactionId]] = {}
        for root in roots:
            levels.setdefault(root.priority, []).append(root.tid)
        higher: Set[TransactionId] = set()
        for priority in sorted(levels, reverse=True):
            self._do_group(levels[priority], higher, conflicts, decision)
            higher.update(levels[priority])

    def _do_group(
        self,
        tids: List[TransactionId],
        higher: Set[TransactionId],
        conflicts: Dict[TransactionId, Set[TransactionId]],
        decision: Dict[TransactionId, Decision],
    ) -> None:
        # Lines 4-12: interactions with higher-priority roots.
        surviving: List[TransactionId] = []
        for tid in sorted(tids):
            if decision.get(tid) is Decision.REJECT:
                continue
            # (The top level has nothing above it: no scan.)
            for other in conflicts.get(tid, ()) if higher else ():
                if other not in higher:
                    continue
                if decision.get(other) is Decision.ACCEPT:
                    decision[tid] = Decision.REJECT
                    break
                if decision.get(other) is Decision.DEFER:
                    decision[tid] = Decision.DEFER
            if decision.get(tid) is not Decision.REJECT:
                surviving.append(tid)
        # Lines 13-17: conflicts inside the priority group defer both sides.
        # Walk each survivor's (sparse) adjacency instead of enumerating
        # all O(n²) survivor pairs.
        surviving_set = set(surviving)
        for tid in surviving:
            for other in conflicts.get(tid, ()):
                if other in surviving_set:
                    decision[tid] = Decision.DEFER
                    decision[other] = Decision.DEFER

    # ------------------------------------------------------------------
    # Step 6: application (Figure 4 lines 14-19)

    def _apply_accepted(
        self,
        roots: Sequence[RelevantTransaction],
        extensions: Dict[TransactionId, UpdateExtension],
        decision: Dict[TransactionId, Decision],
        result: ReconcileResult,
    ) -> None:
        state = self._state
        accepted = [
            root for root in roots if decision.get(root.tid) is Decision.ACCEPT
        ]
        accepted_ids = {root.tid for root in accepted}

        # Roots are processed in publish order (as ``_gather_roots`` left
        # them) with a shared ``Used`` set, so overlapping antecedents are
        # applied exactly once.  (The paper iterates only maximal roots;
        # processing every accepted root in order with residual extensions
        # is equivalent — an antecedent root applied first simply leaves
        # nothing extra for its dependents.)
        used: Set[TransactionId] = set()
        for root in accepted:
            extension = extensions[root.tid]
            residual = [tid for tid in extension.members if tid not in used]
            if len(residual) == len(extension.members):  # nothing to leave out
                operations = extension.operations
                update_set = extension.footprint(self._schema)
            else:  # a fresh set: the instance compiles it, for this once
                operations = update_set = flatten(
                    self._schema, update_footprint(state.graph, residual)
                )
            try:
                self._instance.apply_set(update_set)
            except ConstraintViolation:
                # Accepted extensions are mutually conflict-free, so this
                # indicates overlapping chains beyond what the conflict
                # rules model; rejecting is the safe, documented fallback.
                decision[root.tid] = Decision.REJECT
                accepted_ids.discard(root.tid)
                continue
            used.update(residual)
            result.updates_applied += len(operations)

        # Everything applied (roots and antecedents) becomes "applied".
        applied_now: Set[TransactionId] = set(used)
        for root in accepted:
            if root.tid in accepted_ids:
                applied_now.update(extensions[root.tid].members)
                result.accepted.append(root.tid)
        result.applied = sorted(applied_now, key=state.graph.order_of)
        state.record_applied(applied_now)  # which drops them from the graph

    def rebuild_soft_state(self) -> None:
        """Recompute dirty values and conflict groups from the current
        deferred set without re-deciding anything.

        Used by state reconstruction (:meth:`Participant.rebuild`): the
        deferred transactions' standing must not be re-evaluated against
        an instance that may have moved on since they were deferred —
        that re-evaluation belongs to the next real reconciliation.
        """
        self._update_soft_state(ReconcileResult(recno=self._state.last_recno))

    # ------------------------------------------------------------------
    # Step 7: UpdateSoftState (Figure 5)

    def _update_soft_state(self, result: ReconcileResult) -> None:
        """Rebuild dirty values and conflict groups for the deferred set.

        Every deferred root was a root of the :meth:`reconcile` call this
        runs inside of, so its extension is a cache hit unless application
        made a member of its closure ``applied`` — the seed recomputed
        every one of them here, a second full pass per epoch.  Likewise
        the conflict analysis: bringing the incremental index down to the
        deferred set only drops the decided roots and re-compares pairs
        involving extensions that actually changed.
        """
        state = self._state
        deferred_extensions: Dict[TransactionId, UpdateExtension] = {}
        for root in state.deferred_roots():
            try:
                extension = self._cache.get_or_compute(
                    self._schema,
                    state.graph,
                    root,
                    state.applied,
                    state.applied_version,
                    shared=self._shared_pairs,
                )
            except FlattenError:  # pragma: no cover - defensive
                continue
            deferred_extensions[root.tid] = extension
        dirty = set().union(*(e.touched for e in deferred_extensions.values()))
        analysis = self._conflict_index.update(
            self._schema, state.graph, deferred_extensions, self._shared_pairs
        )
        groups = build_conflict_groups(
            self._schema,
            state.graph,
            deferred_extensions,
            analysis=analysis,
        )
        state.replace_soft_state(dirty, groups)
        result.conflict_groups = [
            (group_id, len(group.options))
            for group_id, group in sorted(groups.items(), key=lambda kv: repr(kv[0]))
        ]
