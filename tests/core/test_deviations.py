"""The engine's departures from the paper, one test each.

The reference oracle (``tests/reference/oracle.py``) follows each
departure through one named predicate (``DEVIATIONS``).  Each test below
holds the engine to the oracle as it is, then turns that one predicate
off and shows the answer the paper alone gives moving.  A departure the
oracle found also gets a strict ``xfail`` stating the paper's answer,
until the engine decides by the definitions there.
"""

from __future__ import annotations

import pytest

from repro.confed import Confederation, ConfederationConfig
from repro.core import Decision, ParticipantState, Reconciler, RelevantTransaction
from repro.core.conflicts import find_conflicts
from repro.core.extensions import compute_update_extension
from repro.errors import FlattenError
from repro.instance import Instance
from repro.model import Delete, Insert, Modify, make_transaction
from repro.model.flatten import flatten

from tests.core.helpers import GraphBuilder
from tests.reference.mirror import Mirror, assert_agree
from tests.reference.oracle import ENGINE, Oracle, Peer, Undefined, Unflattenable, raw

RAT1 = ("rat", "prot1", "cell-metab")
RAT1_IMMUNE = ("rat", "prot1", "immune")
MOUSE2 = ("mouse", "prot2", "immune")
MOUSE2_RESP = ("mouse", "prot2", "cell-resp")
MOUSE2_METAB = ("mouse", "prot2", "cell-metab")
FLY3 = ("fruitfly", "prot3", "transport")
FLY3_RESP = ("fruitfly", "prot3", "cell-resp")


class Log:
    """A hand-built history — ``(transaction, antecedent transactions)``
    in publish order — as the engine's graph and as an oracle's log."""

    def __init__(self, schema, *entries) -> None:
        self.schema, self.entries = schema, entries
        self.builder = GraphBuilder()
        for txn, antecedents in entries:
            self.builder.add(txn, [a.tid for a in antecedents])

    def oracle(self, deviations=ENGINE) -> Oracle:
        oracle = Oracle(self.schema, deviations)
        for txn, antecedents in self.entries:
            oracle.publish(txn.tid, txn.updates, antecedents=[a.tid for a in antecedents])
        return oracle

    def reconcile(self, roots, deviations=ENGINE):
        """Participant 9 reconciles ``roots`` (transaction -> priority):
        the engine's result, held to the oracle; then the decisions of an
        oracle with ``deviations``."""
        instance, state = Instance(self.schema), ParticipantState(9)
        batch = self.builder.batch(1, list(roots.items()))
        result = Reconciler(self.schema, instance, state).reconcile(batch)
        new = {txn.tid: priority for txn, priority in roots.items()}
        peer = Peer(self.oracle(), 9, priority=None)
        assert_agree(state, instance, peer, result, peer.run(new))
        return result, Peer(self.oracle(deviations), 9, priority=None).run(new).decisions

    def extensions(self, *roots):
        """The engine's extensions of ``roots`` and an oracle's (the graph
        and the log agree), both over an empty applied set."""
        graph = self.builder.graph
        return {
            txn.tid: compute_update_extension(
                self.schema, graph, RelevantTransaction(txn, 1, graph.order_of(txn.tid)), set()
            )
            for txn in roots
        }


#: ``drop`` and ``edit`` both build on ``base``: ``drop`` inserts and then
#: deletes its row; ``edit`` replaces it.
BASE = make_transaction(1, 0, [Insert("F", RAT1, 1)])
DROP = make_transaction(2, 0, [Insert("F", MOUSE2, 2), Delete("F", RAT1, 2)])
EDIT = make_transaction(3, 0, [Modify("F", RAT1, RAT1_IMMUNE, 3)])


def cancelled_key(schema) -> Log:
    return Log(schema, (BASE, ()), (DROP, (BASE,)), (EDIT, (BASE,)))


def test_flattened_key_candidates(schema):
    result, paper = cancelled_key(schema).reconcile(
        {BASE: 1, DROP: 1, EDIT: 1}, ENGINE - {"flattened_key_candidates"}
    )
    # The flattened extensions share no key: never compared, both are
    # accepted, and ``edit`` cannot apply once ``drop`` has.
    assert result.decisions == {
        BASE.tid: Decision.ACCEPT, DROP.tid: Decision.ACCEPT, EDIT.tid: Decision.REJECT
    }
    # Definition 4 removes the shared base first: what is left conflicts.
    assert paper == {BASE.tid: "accept", DROP.tid: "defer", EDIT.tid: "defer"}


def test_rejects_unappliable(schema):
    with pytest.raises(Undefined, match="does not apply"):
        cancelled_key(schema).reconcile(
            {BASE: 1, DROP: 1, EDIT: 1}, ENGINE - {"rejects_unappliable"}
        )


def test_rejects_unflattenable(schema):
    # Two inserts of one key in one chain.
    base = make_transaction(3, 0, [Insert("F", RAT1, 3)])
    clash = make_transaction(3, 1, [Insert("F", RAT1_IMMUNE, 3)])
    log = Log(schema, (base, ()), (clash, (base,)))
    result, _ = log.reconcile({clash: 1})
    assert result.decisions == {clash.tid: Decision.REJECT}
    with pytest.raises(Undefined, match="does not flatten"):
        log.reconcile({clash: 1}, ENGINE - {"rejects_unflattenable"})


def test_raw_residuals(schema):
    # Shrunk from WorkloadConfig(transaction_size=2, seed=5) on four
    # peers (``test_conflicts.py::test_shared_member_inside_a_chain``):
    # without the shared ``revise``, ``back``'s residual consumes a row
    # only ``revise`` left, so it does not flatten.
    base = make_transaction(1, 0, [Insert("F", RAT1, 1), Insert("F", MOUSE2, 1)])
    revise = make_transaction(1, 1, [Modify("F", RAT1, RAT1_IMMUNE, 1), Insert("F", FLY3, 1)])
    back = make_transaction(
        1, 2, [Modify("F", RAT1_IMMUNE, RAT1, 1), Modify("F", MOUSE2, MOUSE2_RESP, 1)]
    )
    aside = make_transaction(1, 3, [Modify("F", FLY3, FLY3_RESP, 1)])
    clash = make_transaction(1, 4, [Delete("F", FLY3, 1), Insert("F", MOUSE2_METAB, 1)])
    log = Log(
        schema, (base, ()), (revise, ()), (back, (revise, base)), (aside, (revise,)),
        (clash, (revise,)),
    )
    engine = find_conflicts(schema, log.builder.graph, log.extensions(back, aside, clash))
    oracle = log.oracle()
    extensions = {txn.tid: oracle.extension(txn.tid, 1, set()) for txn in (back, aside, clash)}
    assert oracle.find_conflicts(extensions) == {
        pair: set(points) for pair, points in engine.points.items()
    }
    assert (back.tid, clash.tid) in engine.points
    with pytest.raises(Undefined, match="no flattened footprint"):
        log.oracle(ENGINE - {"raw_residuals"}).find_conflicts(extensions)


#: A row inserted, deleted, and deleted again: how a closure looks when
#: value-based antecedents give two deletions of one row value a shared
#: producer (shrunk from a generated schedule of four peers).
ROW = ("rat", "p0", "fn2")
CONSUMED_TWICE = [Insert("F", ROW, 2), Delete("F", ROW, 2), Delete("F", ROW, 1)]


def test_reconsumes_emptied_keys(schema):
    assert raw(flatten(schema, CONSUMED_TWICE)) == Oracle(schema).flatten(CONSUMED_TWICE)
    with pytest.raises(Unflattenable):
        Oracle(schema, ENGINE - {"reconsumes_emptied_keys"}).flatten(CONSUMED_TWICE)


@pytest.mark.xfail(strict=True, reason="the engine's flatten reconsumes emptied keys")
def test_a_sequence_consuming_a_row_twice_has_no_flattened_footprint(schema):
    with pytest.raises(FlattenError):
        flatten(schema, CONSUMED_TWICE)


def _own_delta_across_a_resolution():
    """Participant 1 edits a row, resolves a conflict whose winner then
    replaces that row, and edits the result: its own delta since its last
    reconcile no longer replays as one sequence.  Returns the mirrored
    confederation and the root participant 3 publishes last."""
    a, b, b2, c = (("rat", "p1", value) for value in ("a", "b", "b2", "c"))
    confed = Confederation.from_config(ConfederationConfig(peers=(1, 2, 3)))
    mirror = Mirror(confed)
    me, second, third = confed.participants
    mirror.execute(second, [Insert("F", a, 2)])
    second.publish_and_reconcile()
    me.reconcile()
    third.reconcile()
    mirror.execute(second, [Modify("F", a, b, 2)])
    second.publish_and_reconcile()
    mirror.execute(third, [Modify("F", a, b2, 3)])
    third.publish_and_reconcile()
    me.reconcile()  # the two replacements conflict: both deferred
    mirror.execute(me, [Delete("F", a, 1)])
    mirror.execute(me, [Insert("F", a, 1)])
    [group] = me.open_conflicts()
    [winner] = [n for n, option in enumerate(group.options) if option.transactions[0][0] == 2]
    mirror.resolve(me, group.group_id, winner)
    mirror.execute(me, [Modify("F", b, c, 1)])
    root = mirror.execute(third, [Insert("F", ("rat", "p9", "z"), 3)]).tid
    third.publish_and_reconcile()
    return confed, mirror, root


def test_an_own_delta_spanning_a_resolution_still_reconciles():
    confed, _mirror, root = _own_delta_across_a_resolution()
    assert confed.participant(1).publish_and_reconcile().decisions == {root: Decision.ACCEPT}
