"""The client-centric ``ReconcileUpdates`` algorithm (Figures 4 and 5).

One :class:`Reconciler` belongs to one participant.  Each call to
:meth:`Reconciler.reconcile` processes one reconciliation batch as
Figure 4's fixed sequence of steps, one method each, in the order they
are defined below; each step's docstring says what it does and why.

Caching (the incremental hot path)
----------------------------------

Deriving extensions, ``FindConflicts`` and ``UpdateSoftState`` pay only
for what changed since the last run (:mod:`repro.core.cache` and
:class:`repro.core.conflicts.IncrementalConflictIndex` say how and why
each reuse is exact):

* extensions are memoized against
  :attr:`ParticipantState.applied_version` — an untouched deferred root
  is an O(1) hit or an O(|members|) revalidation — an extension a
  store-computed batch offers is adopted, and otherwise the store's
  conflict graph is asked for what another participant derived over
  the same closure before one is derived here;
  ``UpdateSoftState`` takes what the run derived, asking again only for
  a root whose closure this run's applications cut;
* ``FindConflicts`` is one scanner, the incremental index (a store
  assembling batches keeps one per participant too): only pairs with an
  extension that changed since the previous epoch are examined — an
  edge some index anywhere already left on the two objects is read, not
  recomputed — and ``UpdateSoftState`` discards the run's decided roots
  from it; a batch whose store assembled the adjacency files nothing;
* ``UpdateSoftState`` keeps only what the next run reads, the dirty
  values: the conflict groups are built from the deferred extensions
  when first read (:attr:`ParticipantState.conflict_groups`) and no
  reconcile pays for them;
* ``CheckState``'s ``can_apply_set`` and the application after it probe
  the extension's compiled footprint (:meth:`UpdateExtension.footprint`);
* ``DoGroup`` pays per root, not per clique member: a survivor whose own
  adjacency names a surviving neighbour is deferred, one disjointness
  test each — every producer writes both ends of an edge, so both sides
  of a conflict are.

No reuse rests on a heuristic — extensions are exact for a given applied
set, conflict points depend only on the two objects compared (validated
by identity) — so decisions are those of the procedure run from scratch:
``tests/reference/oracle.py``, which shares no code with this module,
holds the engine to every decision, dirty key, conflict group and
instance row (``tests/reference/mirror.py``).  Per-run counter deltas
are exposed on :attr:`ReconcileResult.cache_stats`.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

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
        hooks: Optional[object] = None,
    ) -> None:
        """``hooks`` is an optional event bus
        (:class:`repro.confed.hooks.HookBus`, duck-typed to keep the
        engine free of upward imports); when present the engine emits
        ``decision``, ``conflict``, and ``cache_stats`` events at the end
        of every reconciliation."""
        self._schema = schema
        self._instance = instance
        self._state = state
        self._hooks = hooks
        self._cache = ExtensionCache()
        self._conflict_index = IncrementalConflictIndex(stats=self._cache.stats)
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
        stats_before = self._cache.stats.snapshot()
        roots = self._gather_roots(batch)
        extensions, decision = self._derive_and_check(batch, roots, own_updates)
        adjacency = self._find_conflicts(batch, extensions, decision)
        self._do_groups(roots, adjacency, decision)
        applied, updates_applied = self._apply_accepted(roots, extensions, decision)
        result = self._record(batch.recno, roots, decision, applied, updates_applied)
        self._update_soft_state(roots, extensions)
        # The extension cache only ever needs the still-deferred roots
        # again (the conflict index let the decided ones go inside
        # UpdateSoftState).
        self._cache.prune(state.deferred)
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
        with this run's counter delta.  Only a ``conflict`` subscriber
        has the groups built, which moves no counter and no memo.
        """
        hooks = self._hooks
        if hooks is None:
            return
        run = {"participant": self._state.participant, "recno": result.recno}
        if hooks.has("decision"):
            for root in roots:  # ``_gather_roots`` sorted them
                hooks.emit("decision", **run, tid=root.tid, decision=decision[root.tid])
        if hooks.has("conflict"):
            for group in self._state.open_conflicts():
                hooks.emit("conflict", **run, group=group)
        hooks.emit("cache_stats", **run, stats=result.cache_stats)

    # ------------------------------------------------------------------
    # Figure 4 lines 2-4: roots

    def _gather_roots(
        self, batch: ReconciliationBatch
    ) -> List[RelevantTransaction]:
        """The roots to consider: newly delivered trusted transactions
        plus every previously deferred one (reconsidered on every run, as
        in the paper), in publish order."""
        state = self._state
        roots = dict(state.deferred)
        for root in batch.roots:
            if not state.is_decided(root.tid):  # (the store should not re-deliver)
                roots.setdefault(root.tid, root)
        return sorted(roots.values(), key=lambda r: r.order)

    # ------------------------------------------------------------------
    # Figure 4 lines 5-8: extensions and CheckState (Figure 5)

    def _derive_and_check(
        self,
        batch: ReconciliationBatch,
        roots: Sequence[RelevantTransaction],
        own_updates: Sequence[Update],
    ) -> Tuple[Dict[TransactionId, UpdateExtension], Dict[TransactionId, Decision]]:
        """Each root's flattened update extension (Definition 3) and
        CheckState's verdict on it.

        The extensions a store-computed batch offers (exact for this
        participant's applied set by construction) go through the cache,
        which adopts them; any other root is derived through the cache
        and the batch's conflict graph.  A root whose chain does not
        flatten is internally inconsistent, can never be applied, and is
        rejected.
        """
        state = self._state
        self._shared_pairs = batch.pair_cache
        offered = batch.extensions or {}

        @functools.cache
        def own_keys() -> FrozenSet[QualifiedKey]:
            """Every key a raw own update touches: the flattened delta's
            keys, or the raw fallback's, are among them."""
            schema = self._schema
            return frozenset(
                key for update in own_updates for key in update.keys_touched(schema)
            )

        @functools.cache
        def own_index() -> Dict[QualifiedKey, List[Update]]:
            """The flattened own delta, indexed by the keys it touches.
            A delta spanning a resolution may not flatten as one
            sequence; its raw updates are indexed then, as Definition
            4's residuals are."""
            try:
                delta = flatten(self._schema, own_updates)
            except FlattenError:
                delta = own_updates
            return index_by_key(self._schema, delta)

        def own(touched: FrozenSet[QualifiedKey]) -> Dict[QualifiedKey, List[Update]]:
            """CheckState line 7's operand for a root touching ``touched``:
            the delta is traced by the first root that reaches that test
            touching a raw own key — one touching none cannot meet it, and
            a run none of whose roots does never traces it."""
            return {} if touched.isdisjoint(own_keys()) else own_index()

        extensions: Dict[TransactionId, UpdateExtension] = {}
        decision: Dict[TransactionId, Decision] = {}
        lookup, version, applied = self._cache.lookup, state.applied_version, state.applied
        for root in roots:
            tid = root.tid
            try:  # a hit is one lookup; a miss looks once more on its way in
                extension = lookup(tid, version, applied) or self._extension(
                    root, offered.get(tid)
                )
            except FlattenError:
                decision[tid] = Decision.REJECT
                continue
            extensions[tid] = extension
            decision[tid] = self._check_state(
                extension, own, dirty_exempt=tid in state.deferred
            )
        return extensions, decision

    def _extension(
        self, root: RelevantTransaction, shipped: Optional[UpdateExtension] = None
    ) -> UpdateExtension:
        """``root``'s extension over the participant's applied set,
        through the cache (``shipped``: the one the batch offers)."""
        state = self._state
        return self._cache.get_or_compute(
            self._schema, state.graph, root, state.applied, state.applied_version,
            shipped=shipped, shared=self._shared_pairs,
        )

    def _check_state(
        self,
        extension: UpdateExtension,
        own: Callable[[FrozenSet[QualifiedKey]], Dict[QualifiedKey, List[Update]]],
        dirty_exempt: bool,
    ) -> Decision:
        """Figure 5's ``CheckState``: defer an extension touching dirty
        values; reject one containing an already-rejected transaction,
        incompatible with the local instance, or conflicting with the
        participant's own just-published delta.

        The dirty-value test applies only to roots that were *not*
        already deferred (``dirty_exempt``): previously deferred roots
        are exactly the transactions whose keys are dirty, and they must
        be re-evaluated on their own merits so that conflict resolution
        can eventually accept them.
        """
        state = self._state
        dirty = state.dirty_keys
        if not dirty_exempt and dirty and not extension.touched.isdisjoint(dirty):
            return Decision.DEFER
        if not extension.member_set.isdisjoint(state.rejected):
            return Decision.REJECT
        if not self._instance.can_apply_set(extension.footprint(self._schema)):
            return Decision.REJECT
        # Own-delta conflicts require a shared key: past the key test, the
        # same keyed comparison FindConflicts makes between two extensions.
        own_index = own(extension.touched)
        if not extension.touched.isdisjoint(own_index) and _conflict_points(
            self._schema, extension.key_index(self._schema), own_index
        ):
            return Decision.REJECT
        return Decision.ACCEPT

    # ------------------------------------------------------------------
    # Figure 4 line 9: FindConflicts

    def _find_conflicts(
        self,
        batch: ReconciliationBatch,
        extensions: Dict[TransactionId, UpdateExtension],
        decision: Dict[TransactionId, Decision],
    ) -> Dict[TransactionId, Set[TransactionId]]:
        """The direct-conflict adjacency ``DoGroup`` reads: the store's,
        if it assembled one covering every root, else the index's —
        brought to the extensions ``CheckState`` did not reject.  No
        later step reads a rejected root's edges (``_do_group`` skips it,
        ignores it as a neighbour, keeps it out of the survivors; soft
        state is made of deferred roots), so it is never bucketed or
        compared, and one deferred until now leaves the index here."""
        if batch.conflicts is not None and batch.extensions.keys() >= extensions.keys():
            return batch.conflicts
        standing = {
            tid: extension
            for tid, extension in extensions.items()
            if decision[tid] is not Decision.REJECT
        }
        return self._conflict_index.update(
            self._schema, self._state.graph, standing, self._shared_pairs
        ).adjacency

    # ------------------------------------------------------------------
    # Figure 4 lines 10-12: DoGroup (Figure 5)

    def _do_groups(
        self,
        roots: Sequence[RelevantTransaction],
        conflicts: Dict[TransactionId, Set[TransactionId]],
        decision: Dict[TransactionId, Decision],
    ) -> None:
        """``DoGroup`` per priority level, greedy by decreasing priority.
        The roots are bucketed by level once; each level is handed its
        own tids and those of every level above it."""
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
        """One priority level: reject roots that conflict with accepted
        higher-priority roots, defer roots that conflict with deferred
        higher-priority roots, and defer every survivor whose adjacency
        names another survivor of the level."""
        # Lines 4-12: interactions with higher-priority roots, met over
        # the smaller side (the top level has nothing above it: no scan).
        for tid in tids:
            if decision[tid] is Decision.REJECT or not higher:
                continue
            above = {
                decision[other] for other in higher.intersection(conflicts.get(tid, ()))
            }
            if Decision.ACCEPT in above:
                decision[tid] = Decision.REJECT
            elif Decision.DEFER in above:
                decision[tid] = Decision.DEFER
        # Lines 13-17: a survivor whose own adjacency names a survivor is
        # deferred (both ends of an edge are written: both sides are).
        surviving = {tid for tid in tids if decision[tid] is not Decision.REJECT}
        for tid in surviving:
            if not surviving.isdisjoint(conflicts.get(tid, ())):
                decision[tid] = Decision.DEFER

    # ------------------------------------------------------------------
    # Figure 4 lines 13-19: application

    def _apply_accepted(
        self,
        roots: Sequence[RelevantTransaction],
        extensions: Dict[TransactionId, UpdateExtension],
        decision: Dict[TransactionId, Decision],
    ) -> Tuple[Set[TransactionId], int]:
        """Apply the accepted roots' extensions; return every transaction
        applied (roots and antecedents) and the number of updates written.

        Roots are processed in publish order (as ``_gather_roots`` left
        them) with a shared ``Used`` set, so overlapping antecedents are
        applied exactly once: a root some of whose members an earlier
        root applied contributes only the residual, flattened afresh.
        (The paper iterates only maximal roots; processing every accepted
        root in order with residual extensions is equivalent — an
        antecedent root applied first simply leaves nothing extra for its
        dependents.)
        """
        used: Set[TransactionId] = set()
        updates_applied = 0
        for root in roots:
            if decision[root.tid] is not Decision.ACCEPT:
                continue
            extension = extensions[root.tid]
            residual = [tid for tid in extension.members if tid not in used]
            if len(residual) == len(extension.members):  # nothing to leave out
                operations = extension.operations
                update_set = extension.footprint(self._schema)
            else:  # a fresh set: the instance compiles it, for this once
                operations = update_set = flatten(
                    self._schema, update_footprint(self._state.graph, residual)
                )
            try:
                self._instance.apply_set(update_set)
            except ConstraintViolation:
                # Accepted extensions are mutually conflict-free, so this
                # indicates overlapping chains beyond what the conflict
                # rules model; rejecting is the safe, documented fallback.
                decision[root.tid] = Decision.REJECT
                continue
            used.update(residual)
            updates_applied += len(operations)
        return used, updates_applied

    # ------------------------------------------------------------------
    # Figure 4 line 20: the record

    def _record(
        self,
        recno: int,
        roots: Sequence[RelevantTransaction],
        decision: Dict[TransactionId, Decision],
        applied: Set[TransactionId],
        updates_applied: int,
    ) -> ReconcileResult:
        """Write every verdict of the run — to the participant's state and
        to the result — from ``decision`` and what application applied:
        the one place either is written.

        Applied is the operative verdict.  A root rejected or deferred
        *as a proposal* may still have been applied as a member of
        another accepted extension in this same run (its intermediate
        state was revised away by a longer trusted chain); it is then
        neither rejected nor deferred — Definition 5 only excludes
        rejections recorded in earlier epochs.
        """
        state = self._state
        result = ReconcileResult(
            recno=recno,
            applied=sorted(applied, key=state.graph.order_of),
            updates_applied=updates_applied,
            decisions=decision,
        )
        state.record_applied(applied)  # which drops them from the graph
        for root in roots:
            verdict = decision[root.tid]
            if verdict is Decision.ACCEPT:
                result.accepted.append(root.tid)
            elif root.tid in state.applied:
                continue
            elif verdict is Decision.REJECT:
                state.record_rejected([root.tid])
                result.rejected.append(root.tid)
            else:
                state.record_deferred(root)
                result.deferred.append(root.tid)
        return result

    def rebuild_soft_state(self) -> None:
        """Recompute dirty values (and, when next read, conflict groups)
        from the current deferred set without re-deciding anything.

        Used by state reconstruction (:meth:`Participant.rebuild`): the
        deferred transactions' standing must not be re-evaluated against
        an instance that may have moved on since they were deferred —
        that re-evaluation belongs to the next real reconciliation.
        """
        self._update_soft_state(self._state.deferred_roots(), {})

    # ------------------------------------------------------------------
    # Figure 4 line 21: UpdateSoftState (Figure 5)

    def _update_soft_state(
        self,
        roots: Sequence[RelevantTransaction],
        extensions: Dict[TransactionId, UpdateExtension],
    ) -> None:
        """Rebuild dirty values for the deferred set — the keys its
        extensions touch — and leave the conflict groups to be built
        from those extensions when first read: the next ``CheckState``
        reads the dirty values, only a user resolving reads the groups.

        ``roots`` holds every deferred root, in publish order, and
        ``extensions`` what the run this closes derived for them: still
        exact unless application made a member of the closure
        ``applied`` (the cache's own revalidation test), and only then —
        or for a root the run did not see (:meth:`rebuild_soft_state`) —
        is the cache asked.  The run's decided roots leave
        ``FindConflicts``' index; a deferred root stays as it was filed,
        and the next run's ``update`` replaces an extension that moved.
        """
        state = self._state
        deferred_extensions: Dict[TransactionId, UpdateExtension] = {}
        for root in roots:
            if root.tid not in state.deferred:
                continue
            extension = extensions.get(root.tid)
            if extension is None or not extension.member_set.isdisjoint(state.applied):
                try:
                    extension = self._extension(root)
                except FlattenError:  # pragma: no cover - defensive
                    continue
            deferred_extensions[root.tid] = extension
        self._conflict_index.discard(
            self._schema, [root.tid for root in roots if root.tid not in state.deferred]
        )
        dirty = set().union(*(e.touched for e in deferred_extensions.values()))
        state.replace_soft_state(
            dirty,
            functools.partial(
                build_conflict_groups, self._schema, state.graph, deferred_extensions
            ),
        )
