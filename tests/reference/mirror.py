"""A live confederation and the reference oracle, side by side.

:class:`Mirror` feeds the oracle what the confederation publishes (the
``publish`` hook) and compares the two after every reconcile (the
``reconcile`` hook), resolve and soft-state rebuild: the per-root
decisions, the accepted / rejected / deferred / applied sets, the dirty
keys, the conflict groups as ``(type, key) ->`` partition of tids into
options, and the instance rows.  After every reconcile and resolve it
also rebuilds the participant from the store into a fresh instance
(Section 5.2) and holds that to the oracle too: rebuild equals live —
unless the participant's own edits straddled a reconcile or resolve
before it published them (:attr:`Mirror.straddled`).

Also the home of the ``deep`` Hypothesis profile:
``pytest --hypothesis-profile=deep`` runs each oracle comparison on
:data:`DEEP_EXAMPLES` generated examples instead of its tier-1 count
(``tests/conftest.py`` registers it, so the option works from any
directory).
"""

from __future__ import annotations

from typing import Dict, Optional

from hypothesis import settings

from repro import Resolution
from repro.cdss import Participant

from tests.reference.oracle import ENGINE, Oracle, Peer

DEEP_EXAMPLES = 500


def register_deep_profile() -> None:
    settings.register_profile("deep", max_examples=DEEP_EXAMPLES, deadline=None)


def examples(bounded: int) -> int:
    """``bounded`` examples in tier-1; the ``deep`` profile's under it."""
    return DEEP_EXAMPLES if settings.get_current_profile_name() == "deep" else bounded


class Mirror:
    """Shadows ``confed``'s participants with oracle peers."""

    def __init__(self, confed, deviations=ENGINE) -> None:
        self.confed = confed
        self.oracle = Oracle(confed.schema, deviations)
        self.peers: Dict[int, Peer] = {}
        self.transactions = {}
        self.compared = 0
        #: Participants that reconciled or resolved holding unpublished
        #: edits.  The store learns an edit when it is published, not where
        #: it fell among those steps, so a rebuild replays it after them.
        self.straddled = set()
        confed.hooks.on_publish(self._published)
        confed.hooks.on_reconcile(self._reconciled)

    def peer(self, pid: int) -> Peer:
        if pid not in self.peers:
            policy, schema = self.confed.participant(pid).policy, self.confed.schema
            self.peers[pid] = Peer(
                self.oracle, pid, lambda tid: policy.priority_of(schema, self.transactions[tid])
            )
        return self.peers[pid]

    def execute(self, participant, updates):
        transaction = participant.execute(updates)
        self.peer(participant.id).execute(transaction.tid, transaction.updates)
        return transaction

    def resolve(self, participant, group_id, option: Optional[int]):
        group = participant.state.conflict_groups[group_id]
        chosen = None if option is None else frozenset(group.options[option].transactions)
        if participant.unpublished:
            self.straddled.add(participant.id)
        result = participant.resolve([Resolution(group_id, option)])
        self.check(participant, result, self.peer(participant.id).resolve({group_id: chosen}))
        return result

    def rebuild_soft_state(self, participant) -> None:
        participant.reconciler.rebuild_soft_state()
        peer = self.peer(participant.id)
        peer.soft_state()
        self.check(participant, None, None)

    def _published(self, participant, epoch, transactions) -> None:
        self.transactions.update((txn.tid, txn) for txn in transactions)
        self.peer(participant).publish(epoch, [(txn.tid, txn.updates) for txn in transactions])

    def _reconciled(self, participant, recno, result, timing) -> None:
        if self.confed.participant(participant).unpublished:
            self.straddled.add(participant)
        expected = self.peer(participant).reconcile(recno)
        self.check(self.confed.participant(participant), result, expected)

    def check(self, participant, result, expected) -> None:
        peer = self.peer(participant.id)
        assert_agree(participant.state, participant.instance, peer, result, expected)
        if result is not None and participant.id not in self.straddled:
            rebuilt = Participant.rebuild(participant.id, self.confed.store, participant.policy)
            assert_agree(rebuilt.state, rebuilt.instance, peer)
        self.compared += 1


def assert_agree(state, instance, peer: Peer, result=None, expected=None) -> None:
    """Assert an engine run (``result``; None after a rebuild) and the
    oracle's (``expected``) decided alike, and left their participant
    (``state`` and ``instance``; ``peer``) alike."""
    engine = {
        "applied": state.applied,
        "rejected": state.rejected,
        "deferred": set(state.deferred),
        "dirty keys": state.dirty_keys,
        "conflict groups": {
            point: frozenset(frozenset(option.transactions) for option in group.options)
            for point, group in state.conflict_groups.items()
        },
        "rows": {
            (relation, key): row
            for relation, table in instance.snapshot().items()
            for key, row in table.items()
        },
    }
    oracle = {
        "applied": peer.applied,
        "rejected": peer.rejected,
        "deferred": set(peer.deferred),
        "dirty keys": peer.dirty,
        "conflict groups": peer.groups,
        "rows": peer.instance,
    }
    if result is not None:
        engine["decisions"] = {tid: str(verdict) for tid, verdict in result.decisions.items()}
        oracle["decisions"] = expected.decisions
        for name in ("accepted", "rejected", "deferred", "applied"):
            engine[f"run {name}"] = set(getattr(result, name))
            oracle[f"run {name}"] = set(getattr(expected, name))
    for name, value in engine.items():
        assert value == oracle[name], (
            f"p{peer.pid} {name}: engine {value!r} != oracle {oracle[name]!r}"
        )
