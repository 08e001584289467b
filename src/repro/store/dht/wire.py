"""What the DHT store's modules agree on: message kinds, the reply
column of the protocol table, the role table, ring keys, and sizing.

Every message costs the configured latency and is accounted serially
(messages *and* estimated bytes — see :mod:`repro.net.simnet`),
reproducing the paper's message-count-dominated cost regime.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.core.extensions import RelevantTransaction, UpdateExtension
from repro.model.transactions import Transaction
from repro.net.simnet import DEFAULT_FRAGMENT_BYTES
from repro.store.base import LogEntry

#: Publish order is (epoch, index within epoch) flattened to one integer.
EPOCH_STRIDE = 1_000_000

#: Updates per message fragment: DHT messages are size-bounded, so a
#: transaction body travels as ceil(updates / this) fragments, each paying
#: the per-message latency.  Updates carry full tuple values (often two
#: tuples, for replacements), so one update per fragment is the realistic
#: granularity.  This keeps distributed reconciliation cost proportional
#: to the volume of transaction data moved — the regime the paper observes
#: ("requests to follow antecedent transaction chains dominate the running
#: time").
_UPDATES_PER_FRAGMENT = 1


#: Estimated wire bytes per update (full tuple values, often two rows) and
#: per message header; drives the network's byte accounting.
_UPDATE_WIRE_BYTES = 96
HEADER_WIRE_BYTES = 48


def payload_fragments(transaction: Transaction) -> int:
    """Fragments needed to ship a transaction body."""
    updates = len(transaction.updates)
    return max(1, -(-updates // _UPDATES_PER_FRAGMENT))


def body_bytes(transaction: Transaction) -> int:
    """Estimated wire size of a transaction body."""
    return HEADER_WIRE_BYTES + _UPDATE_WIRE_BYTES * len(transaction.updates)


#: Wire bytes of a transaction id riding in a batched request or reply
#: entry, and of a content digest (a truncated hash on a real wire);
#: these price the tiny batched/delta messages byte-accurately instead
#: of charging a whole default fragment per entry.
TID_WIRE_BYTES = 16
DIGEST_WIRE_BYTES = 16
#: Wire bytes of a row value: one tuple, where an update carries up to two.
ROW_WIRE_BYTES = _UPDATE_WIRE_BYTES // 2
#: Entry sizes of the batch messages: a verdict (``carried``: applied, not
#: as a head) or ``retired`` flag byte beside its tid, and a producer row.
VERDICT_ENTRY_BYTES = TID_WIRE_BYTES + 1
PRODUCER_ENTRY_BYTES = ROW_WIRE_BYTES + TID_WIRE_BYTES


def batch_sizing(entries: int, entry_bytes: int) -> Dict[str, int]:
    """The ``Network.send`` sizing of a batch message — a verdict batch
    (``record_decision``, its ack, a ``txn_decision`` delta), a producer
    batch or a ``producer_rows`` delta: a header plus ``entry_bytes``
    per entry, in default-sized fragments, so a large batch never
    counts as one message."""
    size = HEADER_WIRE_BYTES + entries * entry_bytes
    return {"fragments": max(1, -(-size // DEFAULT_FRAGMENT_BYTES)), "size_bytes": size}


def price(kind: str, entries: int) -> Dict[str, int]:
    """The ``Network.send`` sizing of a ``kind`` message of ``entries``
    entries: an ``nc_request`` or ``nc_unchanged`` is one fragment, a
    header plus a tid and a digest per root; an ``nc_adjacency`` a
    header-sized fragment per conflict edge, plus one; a batch the
    driver sends goes by :func:`batch_sizing` at its entry size."""
    if kind in ("nc_request", "nc_unchanged"):
        size = HEADER_WIRE_BYTES + entries * (TID_WIRE_BYTES + DIGEST_WIRE_BYTES)
        return {"fragments": 1, "size_bytes": size}
    if kind == "nc_adjacency":
        return {"fragments": 1 + entries, "size_bytes": HEADER_WIRE_BYTES * (1 + entries)}
    return batch_sizing(entries, {
        "lookup_producer": ROW_WIRE_BYTES,
        "register_producer": PRODUCER_ENTRY_BYTES,
        "record_decision": VERDICT_ENTRY_BYTES,
    }[kind])


#: A flattened extension operation that is byte-identical to an update
#: inside a member body the client holds (shipped in the same coalesced
#: reply, or delivered in an earlier round) is dictionary-encoded as a
#: (member, update-index) reference instead of travelling in full —
#: the client materialises it by copying, no re-flattening involved.
_OP_REF_WIRE_BYTES = 8
_OP_REFS_PER_FRAGMENT = DEFAULT_FRAGMENT_BYTES // _OP_REF_WIRE_BYTES


def encoded_extension_cost(
    extension: UpdateExtension, member_updates: Set[str]
) -> Tuple[int, int]:
    """(fragments, bytes) of a derived extension dictionary-encoded
    against the member bodies the client holds.

    Only *composed* operations — nets of several raw updates, which the
    flattening merged and therefore appear in no body verbatim — pay
    full update bytes; everything else rides as a tiny reference.
    """
    verbatim = sum(
        1
        for operation in extension.operations
        if repr(operation) in member_updates
    )
    composed = len(extension.operations) - verbatim
    size = (
        HEADER_WIRE_BYTES
        + _UPDATE_WIRE_BYTES * composed
        + _OP_REF_WIRE_BYTES * verbatim
    )
    fragments = max(
        1, composed + -(-verbatim // _OP_REFS_PER_FRAGMENT)
    )
    return fragments, size


def extension_digest(extension: UpdateExtension) -> str:
    """A stable content digest of a derived extension.

    Qualified by the reader's priority for the root, it is the
    ``nc_unchanged`` token (``nc._stage``): the client echoes it to prove
    the assembled payload it retained is byte-for-byte the one the
    controller would ship, and the controller answers with the token
    alone instead of re-shipping bodies.  Built from printable content
    only — never object identities — so it is deterministic across
    processes and restarts.
    """
    content = repr(
        (
            str(extension.root),
            tuple(str(member) for member in extension.members),
            tuple(repr(operation) for operation in extension.operations),
        )
    )
    return hashlib.sha1(content.encode("utf-8")).hexdigest()


#: A closure body as it travels and is cached: the log entry itself.
Body = LogEntry


def body(held: Dict[str, Any]) -> Body:
    """The body triple of anything that holds one under the three
    standard keys: a controller record, a ``txn_data`` payload, or an
    ``nc_member_batch``/``nc_data`` entry."""
    return held["transaction"], held["antecedents"], held["order"]


def root(held: Dict[str, Any], priority: int) -> RelevantTransaction:
    """``held``'s transaction as a reconciliation root at ``priority``."""
    return RelevantTransaction(
        transaction=held["transaction"],
        priority=priority,
        order=held["order"],
    )


#: Every message kind this package puts on the wire or handles: the
#: registry the keys and values of the protocol tables are checked
#: against, and the kinds a fault plan may name.  A typo'd kind sent is
#: an unanswered request that burns the whole retry budget.
KINDS = frozenset(
    {
        # replication and recovery
        "replicate",
        "rebalance",
        # registration
        "register_policy",
        "policy_registered",
        # epoch allocation and publication
        "request_epoch",
        "begin_epoch",
        "epoch_begun",
        "begin_publishing",
        "get_current_epoch",
        "current_epoch",
        "poll_max_epoch",
        "max_epoch",
        "set_epoch_counter",
        "epoch_counter_set",
        "publish_ids",
        "epoch_finished",
        "get_epoch_contents",
        "epoch_contents",
        "lookup_producer",
        "producer_is",
        "register_producer",
        "producer_registered",
        "store_txn",
        "txn_stored",
        # client-centric retrieval (Figure 7)
        "request_txn",
        "txn_data",
        "txn_irrelevant",
        "txn_unknown",
        # fully network-centric batches
        "nc_request",
        "nc_fetch_batch",
        "nc_member_batch",
        "nc_data",
        "nc_unchanged",
        "nc_adjacency",
        # decision and reconciliation records
        "record_decision",
        "decision_recorded",
        "record_recon",
        "recon_recorded",
        "get_last_recon",
        "last_recon",
    }
)

#: The client column of the protocol table: request kind -> the kinds
#: that may answer it; :func:`repro.store.dht.client.exchange` hands an
#: exchange's caller the inbox messages of exactly these kinds.  A row
#: with one answer is a request/reply pair whose handler answers through
#: ``_reply``, echoing the request id (``req``); ``request_epoch`` is
#: answered at the end of the Figure-6 chain (``begin_epoch`` ->
#: ``epoch_begun`` -> ``begin_publishing``).  ``get_epoch_contents``,
#: ``lookup_producer``, ``register_producer`` and ``record_decision``
#: each carry one owner's share of a batch, answered once under its
#: request id; what is unanswered is regrouped by owner and re-sent
#: (:func:`~repro.store.dht.client.batched`).
#: So does ``nc_request``, answered by up to two replies under its id
#: (``nc_unchanged`` tokens and ``nc_data`` entries, each settling its
#: roots).  ``request_txn`` is the cascade: controllers forward it
#: along antecedent chains under the client's token, each root ends in
#: one of several answers, and a retry travels under a fresh token.
#: (``nc_fetch_batch`` runs between controllers; no client awaits it.)
REPLIES: Dict[str, Tuple[str, ...]] = {
    "register_policy": ("policy_registered",),
    "request_epoch": ("begin_publishing",),
    "get_current_epoch": ("current_epoch",),
    "poll_max_epoch": ("max_epoch",),
    "set_epoch_counter": ("epoch_counter_set",),
    "publish_ids": ("epoch_finished",),
    "get_epoch_contents": ("epoch_contents",),
    "lookup_producer": ("producer_is",),
    "register_producer": ("producer_registered",),
    "store_txn": ("txn_stored",),
    "record_decision": ("decision_recorded",),
    "record_recon": ("recon_recorded",),
    "get_last_recon": ("last_recon",),
    "request_txn": ("txn_data", "txn_irrelevant", "txn_unknown"),
    "nc_request": ("nc_data", "nc_unchanged"),
}


#: The predesignated key whose owner is the epoch allocator.
ALLOCATOR_KEY = "epoch-allocator"


#: The ring keys of the other roles: the owner of ``txn_key(tid)`` is
#: the transaction controller of ``tid``, of ``epoch_key(epoch)`` the
#: epoch controller, of ``value_key(relation, row)`` the row value's
#: value controller, of ``peer_key(participant)`` the peer coordinator.
txn_key = "txn:{}".format
epoch_key = "epoch:{}".format
value_key = "value:{}:{!r}".format
peer_key = "peer:{}".format


def _txn_state(record: Dict[str, Any]) -> Dict[str, Any]:
    """A detached copy of a transaction record for shipping."""
    return {
        "transaction": record["transaction"],
        "antecedents": record["antecedents"],
        "order": record["order"],
        "decisions": dict(record["decisions"]),
        "stamps": dict(record["stamps"]),
    }


def _epoch_state(record: Dict[str, Any]) -> Dict[str, Any]:
    """A detached copy of an epoch record for shipping."""
    return {
        "publisher": record["publisher"],
        "ids": list(record["ids"]),
        "complete": record["complete"],
    }


def _txn_cost(record: Dict[str, Any]) -> Tuple[int, int]:
    """A transaction record ships at the price of its body."""
    transaction = record["transaction"]
    return payload_fragments(transaction), body_bytes(transaction)


def _unsized(record: Any) -> Tuple[int, int]:
    """One default-sized fragment (``size_bytes=0`` means unspecified)."""
    return 1, 0


@dataclass(frozen=True)
class Role:
    """One row of the role table: a replicated record type."""

    #: The ``_HostNode`` attribute holding this role's primary records.
    table: str
    #: Record key -> the ring key the record routes (and replicates) by.
    ring_key: Callable[[Any], str]
    #: Record -> the detached copy that is shipped.
    detach: Callable[[Any], Any]
    #: Record -> how advanced the copy is; when several holders re-ship
    #: one record the most advanced copy wins.  ``None``: the latest
    #: write wins.
    advance: Optional[Callable[[Any], int]]
    #: Record -> what a shipment costs, as ``(fragments, size_bytes)``.
    cost: Callable[[Any], Tuple[int, int]]


#: The role table.  The two things successor replication also ships that
#: are *not* rows — and must not be — are handled by name in
#: :mod:`repro.store.dht.replication`: the ``txn_decision`` delta (one
#: participant's verdict batch) and the allocator's ``epoch_counter``.
ROLES: Dict[str, Role] = {
    # transaction controller: tid -> record; decisions only accumulate
    "txn": Role(
        "txns",
        txn_key,
        _txn_state,
        lambda record: len(record["decisions"]),
        _txn_cost,
    ),
    # epoch controller: epoch -> record; open, then complete
    "epoch": Role(
        "epochs", epoch_key, _epoch_state,
        itemgetter("complete"), _unsized,
    ),
    # value controller: (relation, row) -> producing tid
    "producer": Role(
        "producers",
        lambda key: value_key(*key),
        lambda tid: tid,
        None,
        _unsized,
    ),
    # peer coordinator: participant -> record; the epoch only grows
    "peer": Role(
        "peers", peer_key, dict,
        itemgetter("last_recon_epoch"), _unsized,
    ),
}

def ring_key(role: str, key: Any) -> str:
    """The ring key a replicated ``(role, key)`` shipment routes by."""
    if role == "epoch_counter":
        return ALLOCATOR_KEY
    return ROLES[role].ring_key(key)
