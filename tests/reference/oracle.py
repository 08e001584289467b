"""A reference reconciler written from the paper alone — Definitions 2-5
and Figures 4-5 (``ReconcileUpdates``, ``CheckState``, ``DoGroup``) — over
plain data, to hold the engine to.

It shares no code with the engine: nothing here imports ``repro.core``,
``repro.instance``, ``repro.model.flatten``, ``repro.store`` or the
``benchmarks`` baselines (``test_oracle.py`` holds it to that).  An update is read
through ``relation``, ``read_row()`` and ``written_row()`` alone, the log
is ``{tid: (updates, antecedents)}``, and a participant is sets, a dict of
deferred roots and a dict instance ``{(relation, key): row}``.  Slow is
fine: closures walk the log, every run flattens every extension again,
and FindConflicts compares every pair.

Where the engine departs from the paper the oracle follows it, through
one named predicate each (:data:`DEVIATIONS`, read by
:meth:`Oracle.deviates`); ``Oracle(schema, PAPER)`` is the paper alone,
and raises :class:`Undefined` where the paper gives no verdict.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import combinations
from typing import Dict, List, Optional, Set, Tuple

#: The engine's departures from the paper: name -> what the engine does.
DEVIATIONS = {
    "reconsumes_emptied_keys": "flatten lets a sequence consume a row at a key it has"
    " already emptied, as if the row were there before it began; antecedents are found"
    " by value, so two chains consuming one row can share a closure.  The paper: the"
    " sequence has no flattened footprint.",
    "flattened_key_candidates": "FindConflicts compares two extensions only if their"
    " flattened footprints share a key, so never at a key one chain cancels"
    " above a shared antecedent.  The paper: every pair.",
    "rejects_unflattenable": "a root whose chain does not flatten is rejected, and left"
    " out of soft state.  The paper: no verdict.",
    "raw_residuals": "Definition 4 compares the raw updates of a residual that does not"
    " flatten.  The paper: no flattened footprint to compare.",
    "rejects_unappliable": "an accepted root whose (residual) extension does not apply"
    " is rejected.  The paper: accepted roots are conflict-free and each"
    " passed CheckState, so it cannot happen.",
}
ENGINE, PAPER = frozenset(DEVIATIONS), frozenset()
ACCEPT, REJECT, DEFER = "accept", "reject", "defer"

#: Definition 3: ``members`` in publish order, ``ops`` one ``(relation,
#: read row, written row)`` per net update, ``touched`` every key the
#: chain's updates read or write, ``keys`` every key an op does.
Ext = namedtuple("Ext", "root members ops touched keys priority")
Result = namedtuple("Result", "decisions accepted rejected deferred applied")


def raw(updates) -> List[Tuple]:
    return [(u.relation, u.read_row(), u.written_row()) for u in updates]


class Unflattenable(Exception):
    """A sequence consumes a row its replay does not hold there, or
    writes onto a key the replay holds a row under."""


class Undefined(Exception):
    """The paper gives no verdict here."""


class Oracle:
    """The published log and the definitions over it."""

    def __init__(self, schema, deviations=ENGINE) -> None:
        self.schema, self.deviations = schema, frozenset(deviations)
        self.log: Dict[object, Tuple[Tuple, Tuple]] = {}
        self.order: Dict[object, int] = {}
        self.epoch: Dict[object, int] = {}

    def deviates(self, name: str) -> bool:
        return name in self.deviations

    def fall_back(self, name: str, case: str) -> None:
        if not self.deviates(name):
            raise Undefined(case)

    def key(self, relation: str, row: Tuple) -> Tuple:
        return relation, self.schema.relation(relation).key_of(row)

    def keys(self, op: Tuple) -> Set[Tuple]:
        return {self.key(op[0], row) for row in op[1:] if row is not None}

    def publish(self, tid, updates, epoch: int = 0, antecedents=None) -> None:
        """Append ``tid`` (its origin is ``tid[0]``).  ``antecedents``
        default to ante(X): per row X consumes that X did not produce, the
        transaction published last that wrote that row."""
        if antecedents is None:
            antecedents, produced = [], set()
            for relation, read, written in raw(updates):
                if (relation, read) in produced:
                    produced.discard((relation, read))
                elif read is not None:
                    writers = [
                        t for t in self.order
                        if (relation, read) in {(op[0], op[2]) for op in raw(self.log[t][0])}
                    ]
                    if writers and writers[-1] not in antecedents:
                        antecedents.append(writers[-1])
                if written is not None:
                    produced.add((relation, written))
        self.log[tid] = (tuple(updates), tuple(antecedents))
        self.order[tid], self.epoch[tid] = len(self.order), epoch

    def closure(self, root, stop) -> List:
        """The root and its antecedents, transitively, not descending into
        ``stop``; in publish order."""
        members, todo = set(), [root]
        while todo:
            if (tid := todo.pop()) not in members:
                members.add(tid)
                todo += [a for a in self.log[tid][1] if a not in stop]
        return sorted(members, key=self.order.get)

    def updates(self, members) -> List:
        return [update for tid in members for update in self.log[tid][0]]

    def flatten(self, updates) -> List[Tuple]:
        """Replay ``updates`` onto a dict of what each key holds, a live row
        remembering where its chain began; each chain is one net update
        once chains meeting at a key compose — where one leaves the row
        another found there, or one deletes and the other inserts."""
        held: Dict[Tuple, Optional[Tuple]] = {}
        live: Dict[Tuple, list] = {}
        chains = []
        for update in updates:
            read, written, chain = update.read_row(), update.written_row(), None
            if read is not None:
                key = self.key(update.relation, read)
                if held.get(key, read) != read and not (
                    held[key] is None and self.deviates("reconsumes_emptied_keys")
                ):
                    raise Unflattenable(f"consumes {read!r} where {held[key]!r} is held")
                if (chain := live.pop(key, None)) is None:
                    chains.append(chain := [(key, read), None])
                chain[1] = held[key] = None
            if written is not None:
                key = self.key(update.relation, written)
                if held.get(key) is not None:
                    raise Unflattenable(f"writes {written!r} over {held[key]!r}")
                if chain is None:
                    chains.append(chain := [None, None])
                chain[1], held[key], live[key] = (key, written), written, chain
        ends = [chain for chain in chains if chain[0] != chain[1]]
        # At a key consumed twice (``reconsumes_emptied_keys``) the chain
        # placed there last is the one that composes.
        reader_at = {chain[0][0]: chain for chain in ends if chain[0]}
        while True:
            writer_at = {chain[1][0]: chain for chain in ends if chain[1]}
            for chain in ends:
                other = writer_at.get(chain[0][0]) if chain[0] else None
                if other in (None, chain) or reader_at.get(chain[0][0]) is not chain:
                    continue
                if chain[0] == other[1]:  # the key is left holding what was found
                    fused = [other[0], chain[1]]
                elif chain[1] is None and other[0] is None:  # delete + insert
                    fused = [chain[0], other[1]]
                else:
                    continue
                ends = [end for end in ends if end is not chain and end is not other]
                for gone in (chain, other):
                    if gone[0] and reader_at.get(gone[0][0]) is gone:
                        del reader_at[gone[0][0]]
                if fused[0] != fused[1]:
                    ends.append(fused)
                    reader_at.update({fused[0][0]: fused} if fused[0] else {})
                break
            else:
                return [((b or e)[0][0], b and b[1], e and e[1]) for b, e in ends]

    def flat_or_raw(self, updates, deviation: str) -> List[Tuple]:
        try:
            return self.flatten(updates)
        except Unflattenable:
            self.fall_back(deviation, "no flattened footprint")
            return raw(updates)

    def extension(self, root, priority: int, applied) -> Ext:
        members = self.closure(root, applied)
        updates = self.updates(members)
        ops, union = self.flatten(updates), lambda ops: set().union(*map(self.keys, ops))
        return Ext(root, tuple(members), ops, union(raw(updates)), union(ops), priority)

    def conflict(self, left: Tuple, right: Tuple) -> bool:
        """Definition 2 (symmetric), case 1 generalised from two inserts
        to any two writes."""
        if left[0] != right[0]:
            return False
        key = lambda row: self.key(left[0], row)  # noqa: E731
        # 1: two updates leaving different rows under one key.
        if None not in (left[2], right[2]) and key(left[2]) == key(right[2]):
            if left[2] != right[2]:
                return True
        # 2: a deletion, and an insertion or replacement of its key, or a
        # deletion of another row there.
        for deletion, other in ((left, right), (right, left)):
            if deletion[2] is not None:
                continue
            if other[1] is None:  # an insertion
                if key(other[2]) == key(deletion[1]):
                    return True
            elif key(other[1]) == key(deletion[1]):
                if other[2] is not None or other[1] != deletion[1]:
                    return True
        # 3: two replacements of one tuple to different values.
        return None not in left + right and left[1] == right[1] and left[2] != right[2]

    def points(self, left_ops, right_ops) -> Set[Tuple]:
        """Where two update sets conflict, as ``(type, key)``: Definition 2
        relates updates only at a key both touch, so only those meet."""
        def kind(op):
            return "insert" if op[1] is None else "delete" if op[2] is None else "replace"

        right_at: Dict[Tuple, List[Tuple]] = {}
        for right in right_ops:
            for key in self.keys(right):
                right_at.setdefault(key, []).append(right)
        return {
            ("/".join(sorted((kind(left), kind(right)))), key)
            for left in left_ops for key in self.keys(left)
            for right in right_at.get(key, ()) if self.conflict(left, right)
        }

    def find_conflicts(self, extensions: Dict[object, Ext]) -> Dict[Tuple, Set[Tuple]]:
        """FindConflicts: each pair, lower tid first, to the points where
        it directly conflicts (Definition 4: the shared members removed),
        one subsuming the other skipped (line 4)."""
        edges = {}
        for a, b in combinations(sorted(extensions), 2):
            left, right = extensions[a], extensions[b]
            shared = set(left.members) & set(right.members)
            if shared in (set(left.members), set(right.members)):
                continue
            if self.deviates("flattened_key_candidates") and not left.keys & right.keys:
                continue
            if shared:
                left, right = (
                    self.flat_or_raw(
                        self.updates([m for m in e.members if m not in shared]), "raw_residuals"
                    )
                    for e in (left, right)
                )
            else:
                left, right = left.ops, right.ops
            if points := self.points(left, right):
                edges[(a, b)] = points
        return edges


class Peer:
    """One participant, deciding by Figures 4 and 5."""

    def __init__(self, oracle: Oracle, pid: int, priority) -> None:
        """``priority(tid)`` is pri_i (0: untrusted)."""
        self.oracle, self.pid, self.priority = oracle, pid, priority
        self.applied, self.rejected, self.dirty, self.unpublished = set(), set(), set(), set()
        self.deferred: Dict[object, int] = {}  # root -> its priority
        self.groups: Dict[Tuple, frozenset] = {}  # point -> options, as sets of tids
        self.instance: Dict[Tuple, Tuple] = {}
        self.last, self.own = 0, []  # epoch reconciled to; updates executed since

    def execute(self, tid, updates) -> None:
        for relation, read, written in raw(updates):
            if read is not None:
                del self.instance[self.oracle.key(relation, read)]
            if written is not None:
                self.instance[self.oracle.key(relation, written)] = written
        self.own += updates
        self.unpublished.add(tid)

    def publish(self, epoch: int, transactions) -> None:
        for tid, updates in transactions:
            if tid not in self.unpublished:
                self.execute(tid, updates)
            self.unpublished.discard(tid)
            self.oracle.publish(tid, updates, epoch)
            self.applied.add(tid)

    def reconcile(self, recno: int) -> Result:
        """New roots: the undecided trusted foreign transactions published
        in epochs ``(last, recno]``."""
        log, seen = self.oracle, self.applied | self.rejected | set(self.deferred)
        new = {
            tid: priority for tid in log.order
            if self.last < log.epoch[tid] <= recno and tid[0] != self.pid and tid not in seen
            and (priority := self.priority(tid)) > 0
        }
        self.last, own, self.own = recno, self.own, []
        return self.run(new, own)

    def run(self, new: Dict[object, int], own=()) -> Result:
        """ReconcileUpdates (Figure 4) over the deferred roots and ``new``
        (root -> priority), ``own`` being the participant's own delta."""
        log, roots = self.oracle, {**new, **self.deferred}
        order = sorted(roots, key=log.order.get)
        decision, extensions = {}, {}

        @cache
        def own_ops():  # line 7's operand, once a root gets that far
            try:
                return log.flatten(own)
            except Unflattenable:
                return raw(own)

        for tid in order:
            try:
                extensions[tid] = log.extension(tid, roots[tid], self.applied)
            except Unflattenable:
                log.fall_back("rejects_unflattenable", f"{tid} does not flatten")
                decision[tid] = REJECT
                continue
            decision[tid] = self.check_state(extensions[tid], own_ops, tid in self.deferred)
        adjacency = {tid: set() for tid in roots}
        for a, b in log.find_conflicts(extensions):
            adjacency[a].add(b)
            adjacency[b].add(a)
        self.do_groups(roots, adjacency, decision)
        used = set()  # lines 13-19: accepted roots applied in order
        for tid in (t for t in order if decision[t] == ACCEPT):
            residual = [m for m in extensions[tid].members if m not in used]
            ops = extensions[tid].ops if len(residual) == len(extensions[tid].members) else (
                log.flatten(log.updates(residual)))
            if (after := self.fits(ops)) is None:
                log.fall_back("rejects_unappliable", f"accepted {tid} does not apply")
                decision[tid] = REJECT
                continue
            self.instance = after
            used.update(residual)
        result = Result(dict(decision), [t for t in order if decision[t] == ACCEPT], [], [],
                        sorted(used, key=log.order.get))
        self.applied |= used
        self.rejected -= used
        for tid in order:
            if tid in self.applied:
                self.deferred.pop(tid, None)
            elif decision[tid] == REJECT:
                self.rejected.add(tid)
                self.deferred.pop(tid, None)
                result.rejected.append(tid)
            elif decision[tid] == DEFER:
                self.deferred[tid] = roots[tid]
                result.deferred.append(tid)
        self.soft_state()
        return result

    def check_state(self, extension: Ext, own_ops, was_deferred: bool) -> str:
        """CheckState (Figure 5); a root deferred before is exempt from the
        dirty test, its keys being dirty because it is deferred."""
        if not was_deferred and extension.touched & self.dirty:
            return DEFER
        if self.rejected & set(extension.members) or self.fits(extension.ops) is None:
            return REJECT
        return REJECT if self.oracle.points(extension.ops, own_ops()) else ACCEPT

    def fits(self, ops) -> Optional[Dict[Tuple, Tuple]]:
        """The instance after ``ops`` as a set — each consumed row there,
        each written key then free or holding that row, each foreign key
        of a written row satisfied after — or None."""
        schema, after = self.oracle.schema, dict(self.instance)
        for relation, read, _ in ops:
            if read is not None and after.pop(self.oracle.key(relation, read), None) != read:
                return None
        written = [(relation, row) for relation, _, row in ops if row is not None]
        for relation, row in written:
            if after.setdefault(self.oracle.key(relation, row), row) != row:
                return None
        for relation, row in written:
            value = schema.relation(relation).value_of
            for fk in schema.foreign_keys_from(relation):
                target = fk.target_relation, tuple(value(row, a) for a in fk.source_attributes)
                if after.get(target) is None:
                    return None
        return after

    def do_groups(self, roots, adjacency, decision) -> None:
        """DoGroup (Figure 5) per priority level, highest first."""
        higher: Set = set()
        for level in sorted(set(roots.values()), reverse=True):
            tids = sorted(t for t in roots if roots[t] == level)
            for tid in (t for t in tids if decision[t] != REJECT):
                above = {decision[o] for o in adjacency[tid] & higher}
                if ACCEPT in above:
                    decision[tid] = REJECT
                elif DEFER in above:
                    decision[tid] = DEFER
            surviving = {t for t in tids if decision[t] != REJECT}
            decision.update((t, DEFER) for t in surviving if adjacency[t] & surviving)
            higher.update(tids)

    def soft_state(self) -> None:
        """UpdateSoftState: the deferred roots' dirty keys and conflict
        groups; in a group, roots making the same modification at its key
        share an option."""
        log, extensions, standing = self.oracle, {}, {}
        for tid, priority in self.deferred.items():
            try:
                extensions[tid] = log.extension(tid, priority, self.applied)
            except Unflattenable:
                log.fall_back("rejects_unflattenable", f"deferred {tid} does not flatten")
        self.dirty = set().union(*(e.touched for e in extensions.values()))
        for pair, points in log.find_conflicts(extensions).items():
            for point in points:
                standing.setdefault(point, set()).update(pair)
        self.groups = {}
        for point, tids in standing.items():
            options: Dict[Tuple, Set] = {}
            for tid in tids:
                at = [op for op in extensions[tid].ops if point[1] in log.keys(op)]
                writes = [op[2] for op in at if op[2] and log.key(op[0], op[2]) == point[1]]
                effect = ("write", writes[0]) if writes else ("consume", *at[0][1:]) if at else ()
                options.setdefault(effect, set()).add(tid)
            self.groups[point] = frozenset(map(frozenset, options.values()))

    def resolve(self, chosen: Dict[Tuple, Optional[frozenset]]) -> Result:
        """Per group, keep the chosen option (with its roots' closures),
        reject the other options' roots, then run with nothing new."""
        keep, reject = set(), set()
        for point, option in chosen.items():
            for other in self.groups[point]:
                reject |= other if other != option else set()
            for tid in option or ():
                keep.update(self.oracle.closure(tid, self.applied))
        for tid in reject - keep:
            self.rejected.add(tid)
            self.deferred.pop(tid, None)
        result = self.run({})
        result.rejected.extend(sorted(reject - keep - set(result.rejected)))
        return result
