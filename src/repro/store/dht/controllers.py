"""The roles of Section 5.2.2 as message handlers (Figures 6-7).

Each handler is a plain function ``(host, network, message)`` named in
the one dispatch table (``HANDLERS`` in :mod:`repro.store.dht.host`);
request/reply handlers answer through ``host._reply`` *at the point
they reply* — send order feeds the seeded fault injector, so a reply is
never deferred to after the handler returns.

Context-free shipping (PR 3)
----------------------------

The paper's distributed store left clients to compute every update
extension locally.  Since PR 3 the DHT has shipping parity with the
central stores — the "distributed store + network-centric" quadrant of
Figure 3:

* **derive once at publish** — when a transaction controller stores a
  new transaction it collects the antecedent closure from the other
  controllers over the simulated network (``cf_fetch``/``cf_data``
  messages, bodies paying fragment costs) and computes the transaction's
  *context-free* update extension (flattened against an empty applied
  set — fixed at publish time, so derived exactly once for the whole
  confederation);
* **ship on fetch** — root deliveries (``txn_data``) carry the derived
  extension, charged as extra fragments/bytes on the first delivery to
  each participant (clients cache it in soft state like bodies);
* **shared pair memo** — the driver keeps one confederation-wide
  :class:`~repro.core.cache.ConflictGraph` attached to every batch;
  because every client receives the *same* extension object for a given
  (transaction, closure), re-priced, the first conflict index to hold a
  pair hangs its edge there for all the others.

The reconciling engine adopts a shipped extension only when its member
closure is disjoint from the local applied set — exactly the condition
under which it equals the local computation — so decisions are
byte-identical to the client-computed path
(``tests/integration/test_store_equivalence.py`` pins this).  Both
memos use reconciliation-aware retention: once every participant holds
a final verdict for a transaction, its controller drops the derived
extension and the driver drops the pairs it participates in.
``ship_context_free=False`` restores the paper's client-compute-only
behaviour: no payload on the batch, so the engine derives locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.extensions import (
    RelevantTransaction,
    UpdateExtension,
    flattened_extension,
)
from repro.errors import FlattenError, StoreError
from repro.model.schema import Schema
from repro.model.transactions import Transaction, TransactionId
from repro.net.simnet import Message, Network
from repro.store.dht import wire
from repro.store.dht.replication import (
    allocator_counter, record, replicate, ship, ship_delta,
)
from repro.store.network_centric import DirectLogStore

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
    schema: Schema, root: RelevantTransaction, bodies: Sequence[wire.Body]
) -> Optional[UpdateExtension]:
    """``root``'s update extension over its member closure ``bodies``
    (in publish order); ``None`` when the closure does not flatten (the
    client's own computation reaches the same ``FlattenError``)."""
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
    on the same closure shares the row: the priority-agnostic extension,
    one re-priced copy and digest per priority (the pair memos validate
    by object identity), and the dictionary-encoded shipping price.
    """

    #: The closure's bodies, in publish order.
    bodies: Sequence[wire.Body]
    #: Its extension at priority 0; ``None`` when it does not flatten —
    #: such a root ships bodies only and the client rejects it.
    extension: Optional[UpdateExtension]
    _priced: Dict[int, Tuple[UpdateExtension, str]] = field(default_factory=dict, init=False)

    def at(
        self, priority: int
    ) -> Tuple[Optional[UpdateExtension], Optional[str]]:
        """``(extension, digest)`` as a participant at ``priority`` is
        served them — the same objects on every call."""
        if self.extension is None:
            return None, None
        priced = self._priced.get(priority)
        if priced is None:
            extension = self.extension.repriced(priority)
            priced = (extension, wire.extension_digest(extension))
            self._priced[priority] = priced
        return priced

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
    if len(host.derived) > DirectLogStore.SHARED_MEMO_LIMIT:
        del host.derived[next(iter(host.derived))]  # the FIFO backstop
    closure = frozenset(bodies)
    row = rows.get(closure)
    if row is None:
        ordered = sorted(bodies.values(), key=itemgetter(2))
        row = rows[closure] = Derivation(
            ordered, _derive(host.schema, wire.root(held, 0), ordered)
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
    fresh = record(host, network, "txn", tid) is None
    if fresh:
        host.txns[tid] = {
            "transaction": transaction,
            "antecedents": tuple(payload["antecedents"]),
            "order": payload["order"],
            "decisions": {transaction.origin: "applied"},
            "stamps": {transaction.origin: (payload["version"], True)},
            "context_free": None,
        }
        replicate(host, network, "txn", tid)
    # Reply *before* the derivation starts: its cf_fetch sends queue
    # behind the txn_stored reply, and send order feeds the seeded
    # fault injector.
    host._reply(network, message, tid=tid)
    if fresh and host.ship_context_free:
        _begin_cf_derivation(host, network, tid)


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
    # Ship the derived context-free extension with root deliveries
    # (the reconciling engine only consults shipped extensions for
    # roots), re-priced for the requester by its table row — every
    # participant at one priority receives the identical object, which
    # the shared pair memo validates by (a row the backstop evicted
    # ships nothing; the client computes).  It is derived data, but it
    # still travels: the first delivery to each participant pays its
    # fragments and bytes.
    row = None
    if as_root and held.get("context_free") is not None:
        row = host.derived.get(tid, {}).get(held["context_free"].member_set())
    context_free = row.at(priority)[0] if row is not None else None
    fragments = wire.payload_fragments(transaction) if first_delivery else 1
    size = wire.body_bytes(transaction) if first_delivery else wire.HEADER_WIRE_BYTES
    if context_free is not None and first_delivery:
        fragments += wire.extension_fragments(context_free)
        size += wire.extension_bytes(context_free)
    network.send(
        host.name, client, "txn_data", fragments=fragments, size_bytes=size,
        tid=tid, transaction=transaction, antecedents=held["antecedents"],
        order=held["order"], priority=priority, as_root=as_root,
        context_free=context_free,
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
        # requested again — drop everything derived from it (the
        # context-free extension and the table's rows) and tell the
        # driver so it retires the shared pair-memo entries too.
        retired = False
        if (held.get("context_free") is not None or tid in host.derived) and all(
            held["decisions"].get(pid) in ("applied", "rejected") for pid in host.policies
        ):
            retired = held.get("context_free") is not None
            held["context_free"] = None
            host.derived.pop(tid, None)
        acks.append((tid, retired))
    ship_delta(
        host, network, "txn_decision", (participant, version), recorded,
        wire.txn_key, wire.VERDICT_ENTRY_BYTES,
    )
    host._reply(
        network, message, entries=acks, **wire.batch_sizing(len(acks), wire.VERDICT_ENTRY_BYTES)
    )


# -- context-free derivation (derive once at publish) ---------------------


def _begin_cf_derivation(host, network: Network, tid: TransactionId) -> None:
    """Gather the antecedent closure and derive the transaction's
    context-free extension.

    Antecedents are always published (and hence stored) before their
    dependents, so every body this walk requests already sits at a
    controller.  Bodies this controller already holds — its own
    transactions, or closure bodies fetched by earlier derivations
    (``cf_bodies``) — are absorbed locally; only the rest cross the
    ring as ``cf_fetch``/``cf_data`` pairs, each paying the body's
    fragment and byte costs.  With the reuse cache, a body travels
    to this controller at most once ever, so chains cost O(new
    members) per publish instead of refetching the whole closure.
    """
    held = host.txns[tid]
    token = f"cf:{host.name}:{tid}"
    derivation: Dict[str, Any] = {
        "tid": tid,
        "bodies": {tid: wire.body(held)},
        "pending": set(),
    }
    host.derivations[token] = derivation
    _cf_request(host, network, derivation, token, held["antecedents"])
    if not derivation["pending"]:
        _finish_cf_derivation(host, token)


def _cf_request(
    host, network: Network, derivation: Dict[str, Any], token: str, tids
) -> None:
    """Absorb locally-available bodies (walking their antecedents
    too) and send ``cf_fetch`` for the rest."""
    worklist = list(tids)
    while worklist:
        tid = worklist.pop()
        if tid in derivation["bodies"] or tid in derivation["pending"]:
            continue
        held = host.txns.get(tid)
        body = wire.body(held) if held is not None else host.cf_bodies.get(tid)
        if body is not None:
            derivation["bodies"][tid] = body
            worklist.extend(body[1])
            continue
        derivation["pending"].add(tid)
        network.send(
            host.name, host.ring.owner(wire.txn_key(tid)), "cf_fetch",
            tid=tid, token=token, reply_to=host.name,
        )


def on_cf_fetch(host, network: Network, message: Message) -> None:
    """Serve a closure body to a deriving controller."""
    payload = message.payload
    tid: TransactionId = payload["tid"]
    held = record(host, network, "txn", tid)
    if held is None:
        network.send(
            host.name, payload["reply_to"], "cf_unknown", tid=tid, token=payload["token"]
        )
        return
    transaction = held["transaction"]
    network.send(
        host.name, payload["reply_to"], "cf_data",
        fragments=wire.payload_fragments(transaction),
        size_bytes=wire.body_bytes(transaction),
        tid=tid, transaction=transaction, antecedents=held["antecedents"],
        order=held["order"], token=payload["token"],
    )


def on_cf_data(host, network: Network, message: Message) -> None:
    """Absorb a fetched closure body and keep walking."""
    payload = message.payload
    derivation = host.derivations.get(payload["token"])
    if derivation is None:
        return  # aborted by cf_unknown, or a duplicate after it finished
    tid: TransactionId = payload["tid"]
    derivation["pending"].discard(tid)
    body = wire.body(payload)
    derivation["bodies"][tid] = body
    host.cf_bodies.setdefault(tid, body)
    _cf_request(
        host, network, derivation, payload["token"], payload["antecedents"]
    )
    if not derivation["pending"]:
        _finish_cf_derivation(host, payload["token"])


def on_cf_unknown(host, network: Network, message: Message) -> None:
    """Part of the closure is gone (e.g. its controller failed before
    re-replication): abort — the root ships no extension and clients
    fall back to local computation."""
    host.derivations.pop(message.payload["token"], None)


def _finish_cf_derivation(host, token: str) -> None:
    """Derive against the empty applied set and file the result: on the
    record for ``txn_data`` root deliveries, and as the derivation
    table's full-closure row for the store-computed batches."""
    derivation = host.derivations.pop(token)
    held = host.txns[derivation["tid"]]
    # Priority 0 marks "participant-agnostic"; each requester is served
    # the row's copy at its own priority (``Derivation.at``).
    held["context_free"] = _derivation(host, held, derivation["bodies"]).extension
    host.derive_stats.shipped += 1


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
