"""The roles of Section 5.2.2 as message handlers (Figures 6-7).

Each handler is a plain function ``(host, network, message)`` named in
the one dispatch table (``HANDLERS`` in :mod:`repro.store.dht.host`);
request/reply handlers answer through ``host._reply`` *at the point
they reply* — send order feeds the seeded fault injector, so a reply is
never deferred to after the handler returns.

Where extensions are derived
----------------------------

The paper's distributed store leaves extension computation to the
clients, and so does the client-centric path here: ``txn_data`` carries
bodies only, and each client derives locally.  A controller derives an
extension in one place, the :mod:`repro.store.dht.nc` walk of a
store-computed batch, into its derivation table (:class:`Derivation`).
Nothing is derived at publish: an extension gathered over the ring at
every publish costs more messages than the client work it saves,
because on this store messages dominate the running time.

The driver's one confederation-wide
:class:`~repro.core.cache.ConflictGraph` rides on every batch, so an
edge or a derivation one participant (or a store-side assembly) made
serves the others.  Retention is reconciliation-aware: once every registered
participant holds a final verdict for a transaction, its controller
drops the derivation-table rows and acknowledges the verdict as
``retired``, and the driver unlinks the root from the shared graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.cache import SHARED_MEMO_LIMIT
from repro.core.extensions import UpdateExtension, flattened_extension
from repro.errors import FlattenError, StoreError
from repro.model.schema import Schema
from repro.model.transactions import Transaction, TransactionId
from repro.net.simnet import Message, Network
from repro.store.dht import wire
from repro.store.dht.replication import (
    allocator_counter, record, replicate, ship, ship_delta,
)

# -- shared by the Figure-7 and the network-centric retrieval ------------


def _standing(
    host, txn_record: Dict[str, Any], participant: int
) -> Tuple[Optional[str], int]:
    """``(verdict, priority)``: what ``participant`` has decided about
    the record's transaction, and — because trust conditions live in the
    store — the priority its policy gives it (0: untrusted), walked once
    per policy state (rules are append-only) and transaction."""
    priority = 0
    policy = host.policies.get(participant)
    if policy is not None:
        transaction = txn_record["transaction"]
        key = (policy, len(policy), transaction.tid)
        priority = host.priorities.get(key)
        if priority is None:
            priority = policy.priority_of(host.schema, transaction)
            host.priorities[key] = priority
    return txn_record["decisions"].get(participant), priority


def _first_delivery(host, participant: int, tid: TransactionId) -> bool:
    """Mark ``tid``'s body delivered to ``participant``; True when this
    delivery must pay for it (the first one, or every one when the
    soft-state body cache is ablated)."""
    first = (
        not host.cache_bodies or (participant, tid) not in host.delivered
    )
    host.delivered.add((participant, tid))
    return first


def _derive(
    schema: Schema, root: TransactionId, bodies: Sequence[wire.Body]
) -> Optional[UpdateExtension]:
    """The update extension of the root ``root`` over its member closure
    ``bodies`` (in publish order); ``None`` when the closure does not
    flatten (the client's own computation reaches the same
    ``FlattenError``)."""
    try:
        return flattened_extension(schema, root, [body[0] for body in bodies])
    except FlattenError:
        return None


@dataclass(eq=False)
class Derivation:
    """One row of a controller's derivation table: what a root derives
    to over one member closure, for whoever asks.

    An extension is a pure function of its root and member set — the
    closure graph is fixed at publish, a participant's applied set only
    decides where the walk stops — so every participant whose walk ends
    on the same closure shares the row, at any priority: one extension
    object (the pair memos validate by object identity), its content
    digest, and the dictionary-encoded shipping price.
    """

    #: The closure's bodies, in publish order.
    bodies: Sequence[wire.Body]
    #: Its extension; ``None`` when it does not flatten — such a root
    #: ships bodies only and the client rejects it.
    extension: Optional[UpdateExtension]

    @cached_property
    def digest(self) -> Optional[str]:
        """``wire.extension_digest`` of the extension (``None`` without one)."""
        return None if self.extension is None else wire.extension_digest(self.extension)

    @cached_property
    def cost(self) -> Tuple[int, int]:
        """``(fragments, bytes)`` of the extension dictionary-encoded
        against the member bodies (``wire.encoded_extension_cost``)."""
        pool = {repr(update) for body in self.bodies for update in body[0].updates}
        return wire.encoded_extension_cost(self.extension, pool)


def _derivation(
    host, held: Dict[str, Any], bodies: Dict[TransactionId, wire.Body]
) -> Derivation:
    """The derivation-table row of ``held``'s transaction over the member
    closure ``bodies`` — derived on a miss, never twice."""
    rows = host.derived.setdefault(held["transaction"].tid, {})
    if len(host.derived) > SHARED_MEMO_LIMIT:
        del host.derived[next(iter(host.derived))]  # the FIFO backstop
    closure = frozenset(bodies)
    row = rows.get(closure)
    if row is None:
        ordered = sorted(bodies.values(), key=itemgetter(2))
        row = rows[closure] = Derivation(
            ordered, _derive(host.schema, held["transaction"].tid, ordered)
        )
        host.derive_stats.misses += 1
    else:
        host.derive_stats.revalidations += 1
    return row


# -- registration ---------------------------------------------------------


def on_register_policy(host, network: Network, message: Message) -> None:
    """Trust conditions replicate to every host at registration."""
    payload = message.payload
    host.policies[payload["participant"]] = payload["policy"]
    host._reply(network, message, participant=payload["participant"])


# -- epoch allocator (Figure 6, messages 1-4) -----------------------------


def on_request_epoch(host, network: Network, message: Message) -> None:
    """Allocate the next epoch and have its controller open it."""
    payload = message.payload
    publisher = payload["publisher"]
    req = payload.get("req")
    last = host.last_alloc.get(publisher)
    if req is not None and last is not None and last[0] == req:
        # At-most-once: a retried (or duplicated) request re-drives
        # the already-allocated epoch instead of burning a new one.
        epoch = last[1]
    else:
        host.epoch_counter = allocator_counter(host) + 1
        epoch = host.epoch_counter
        host.last_alloc[publisher] = (req, epoch)
        ship(host, network, "epoch_counter", 0, epoch)
    network.send(
        host.name, host.ring.owner(wire.epoch_key(epoch)), "begin_epoch",
        epoch=epoch, publisher=publisher, reply_to=message.sender, req=req,
    )


def on_begin_epoch(host, network: Network, message: Message) -> None:
    """The epoch controller opens the epoch record."""
    payload = message.payload
    epoch = payload["epoch"]
    if record(host, network, "epoch", epoch) is None:
        # A duplicated begin_epoch must not reopen an existing
        # (possibly completed) epoch record.
        host.epochs[epoch] = {"publisher": payload["publisher"], "ids": [], "complete": False}
        replicate(host, network, "epoch", epoch)
    network.send(
        host.name, host.ring.owner(wire.ALLOCATOR_KEY), "epoch_begun",
        epoch=epoch, reply_to=payload["reply_to"], req=payload.get("req"),
    )


def on_epoch_begun(host, network: Network, message: Message) -> None:
    """Back at the allocator: answer the publisher's ``request_epoch``."""
    payload = message.payload
    network.send(
        host.name, payload["reply_to"], wire.REPLIES["request_epoch"][0],
        epoch=payload["epoch"], req=payload.get("req"),
    )


def on_get_current_epoch(host, network: Network, message: Message) -> None:
    """The allocator's counter."""
    host._reply(network, message, epoch=allocator_counter(host))


def on_poll_max_epoch(host, network: Network, message: Message) -> None:
    """Report the largest epoch this node has seen (allocator recovery).

    Section 5.2.2: "if this peer were to fail, its data could be
    reconstructed by polling for the largest epoch present in the
    system" — every node answers with the largest epoch among those it
    controls (or has allocated), including replicated epoch records.
    """
    known = max(host.epochs, default=0)
    replicated = max(
        (key for role, key in host.replicas if role == "epoch"),
        default=0,
    )
    host._reply(
        network, message, epoch=max(known, replicated, allocator_counter(host))
    )


def on_set_epoch_counter(host, network: Network, message: Message) -> None:
    """Install a counter reconstructed by polling (never regresses)."""
    host.epoch_counter = max(host.epoch_counter, message.payload["epoch"])
    ship(host, network, "epoch_counter", 0, host.epoch_counter)
    host._reply(network, message, epoch=host.epoch_counter)


# -- epoch controller (Figure 6, messages 5-6) ----------------------------


def on_publish_ids(host, network: Network, message: Message) -> None:
    """Close the epoch with the publisher's transaction-id list."""
    payload = message.payload
    epoch = payload["epoch"]
    held = record(host, network, "epoch", epoch)
    if held is None:
        raise StoreError(f"epoch {epoch} was never begun here")
    if not held["complete"]:  # duplicate closes are no-ops
        held["ids"] = list(payload["ids"])
        held["complete"] = True
        replicate(host, network, "epoch", epoch)
    host._reply(network, message, epoch=epoch)


def on_get_epoch_contents(host, network: Network, message: Message) -> None:
    """Serve the contents of every requested epoch this node controls.

    The reconciling peer batches all epochs owned by the same
    controller into one request, so the per-reconciliation overhead is
    one round trip per *distinct controller*, not per epoch.
    """
    results = []
    for epoch in message.payload["epochs"]:
        held = record(host, network, "epoch", epoch)
        results.append(
            {
                "epoch": epoch,
                "ids": list(held["ids"]) if held else [],
                "complete": bool(held and held["complete"]),
                "exists": held is not None,
            }
        )
    host._reply(network, message, results=results)


# -- value controllers (producer index) -----------------------------------


def on_lookup_producer(host, network: Network, message: Message) -> None:
    """Which transaction produced each listed ``(relation, row)`` value
    (a publish batch's antecedent lookups): one tid or ``None`` per row,
    in request order."""
    rows = message.payload["rows"]
    host._reply(
        network, message,
        producers=[record(host, network, "producer", row) for row in rows],
        **wire.batch_sizing(len(rows), wire.TID_WIRE_BYTES),
    )


def on_register_producer(host, network: Network, message: Message) -> None:
    """Record the transactions that now produce the listed row values
    (one publish batch's ``(row, tid)`` entries, in publish order), ship
    them to the successors as one ``producer_rows`` delta each, and
    acknowledge the batch."""
    entries = message.payload["entries"]
    host.producers.update(entries)
    ship_delta(
        host, network, "producer_rows", None, entries,
        wire.ROLES["producer"].ring_key, wire.PRODUCER_ENTRY_BYTES,
    )
    host._reply(network, message, fragments=1, size_bytes=wire.HEADER_WIRE_BYTES)


# -- transaction controllers ----------------------------------------------


def on_store_txn(host, network: Network, message: Message) -> None:
    """Store a published transaction; its publisher has applied it, at
    the applied-set version the request carries."""
    payload = message.payload
    transaction: Transaction = payload["transaction"]
    tid = transaction.tid
    if record(host, network, "txn", tid) is None:
        host.txns[tid] = {
            "transaction": transaction,
            "antecedents": tuple(payload["antecedents"]),
            "order": payload["order"],
            "decisions": {transaction.origin: "applied"},
            "stamps": {transaction.origin: (payload["version"], True)},
        }
        replicate(host, network, "txn", tid)
    host._reply(network, message, tid=tid)


def on_request_txn(host, network: Network, message: Message) -> None:
    """Figure 7: serve a transaction, forwarding antecedent requests."""
    payload = message.payload
    tid: TransactionId = payload["tid"]
    participant: int = payload["participant"]
    client: str = payload["client"]
    token: str = payload["token"]
    as_root: bool = payload["as_root"]

    if (token, tid) in host.served:
        return  # someone already triggered this delivery

    held = record(host, network, "txn", tid)
    if held is None:
        network.send(host.name, client, "txn_unknown", tid=tid)
        return

    verdict, priority = _standing(host, held, participant)
    if verdict in ("applied", "rejected"):
        # Permanently irrelevant for this participant.
        host.served.add((token, tid))
        network.send(host.name, client, "txn_irrelevant", tid=tid)
        return
    if as_root and (verdict == "deferred" or priority <= 0):
        # Not deliverable as a root, but a later forwarded request may
        # still need it as an antecedent — do not mark it served.
        network.send(host.name, client, "txn_irrelevant", tid=tid)
        return

    host.served.add((token, tid))
    transaction: Transaction = held["transaction"]
    first_delivery = _first_delivery(host, participant, tid)
    network.send(
        host.name, client, "txn_data",
        fragments=wire.payload_fragments(transaction) if first_delivery else 1,
        size_bytes=wire.body_bytes(transaction) if first_delivery else wire.HEADER_WIRE_BYTES,
        tid=tid, transaction=transaction, antecedents=held["antecedents"],
        order=held["order"], priority=priority, as_root=as_root,
    )
    # Forward requests for the antecedents directly to their
    # controllers (Figure 7, messages 3-4): the peer never has to ask.
    for ante in held["antecedents"]:
        network.send(
            host.name, host.ring.owner(wire.txn_key(ante)), "request_txn",
            tid=ante, participant=participant, client=client, token=token,
            as_root=False,
        )


def on_record_decision(host, network: Network, message: Message) -> None:
    """Record one participant's verdicts (and the applied-set version
    after them) on this controller's transactions — the feedback that
    also drives retention and the network-centric memos —, ship them to
    the successors as one delta each, and ack each as ``(tid, retired)``."""
    participant: int = message.payload["participant"]
    version: int = message.payload["version"]
    recorded = []
    acks = []
    for tid, verdict in message.payload["entries"]:
        held = record(host, network, "txn", tid)
        if held is None:
            # The record is gone (a crash beyond the replication
            # budget): acknowledge so the client stops retrying — the
            # verdict is lost with the record.
            acks.append((tid, False))
            continue
        recorded.append((tid, verdict))
        # Stamped: the applied-set version after the step, and ``head``.
        held["stamps"][participant] = version, verdict != "carried"
        verdict = held["decisions"][participant] = "applied" if verdict == "carried" else verdict
        # A final verdict retires the participant's pointer into the
        # derivation table: it can never be served this root again.  A
        # deferral keeps it — the next round is answered without a walk
        # while the applied set is unchanged.
        if verdict in ("applied", "rejected"):
            host.nc_memo.pop((participant, tid), None)
        # Reconciliation-aware retention: once every registered
        # participant holds a final verdict the root can never be
        # requested again — drop the table's rows and tell the driver
        # so it unlinks the root from the shared conflict graph too.
        retired = all(
            held["decisions"].get(pid) in ("applied", "rejected") for pid in host.policies
        )
        if retired:
            host.derived.pop(tid, None)
        acks.append((tid, retired))
    ship_delta(
        host, network, "txn_decision", (participant, version), recorded,
        wire.txn_key, wire.VERDICT_ENTRY_BYTES,
    )
    host._reply(
        network, message, entries=acks, **wire.batch_sizing(len(acks), wire.VERDICT_ENTRY_BYTES)
    )


# -- peer coordinators ----------------------------------------------------


def on_record_recon(host, network: Network, message: Message) -> None:
    """Record the participant's reconciliation epoch."""
    payload = message.payload
    participant: int = payload["participant"]
    held = record(host, network, "peer", participant)
    if held is None:
        held = host.peers.setdefault(participant, {"last_recon_epoch": 0})
    # Monotone: a duplicated stale record_recon must not regress.
    held["last_recon_epoch"] = max(held["last_recon_epoch"], payload["epoch"])
    replicate(host, network, "peer", participant)
    host._reply(network, message, epoch=held["last_recon_epoch"])


def on_get_last_recon(host, network: Network, message: Message) -> None:
    """The participant's last reconciliation epoch (0: never)."""
    held = record(host, network, "peer", message.payload["participant"])
    host._reply(
        network, message, epoch=held["last_recon_epoch"] if held else 0
    )
