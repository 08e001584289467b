"""One physical DHT peer: its state, and the one dispatch table.

A host is a state record plus :meth:`_HostNode.handle`, the single
per-message entry point: the protocol itself is the literal
:data:`HANDLERS` table (message kind -> handler function) below, whose
functions live with the role they implement
(:mod:`~repro.store.dht.replication`, :mod:`~repro.store.dht.controllers`,
:mod:`~repro.store.dht.nc`).  The reply column of the same protocol
table is :data:`repro.store.dht.wire.REPLIES`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.core.cache import CacheStats
from repro.errors import StoreError
from repro.model.schema import Schema
from repro.model.transactions import TransactionId
from repro.net.ring import HashRing
from repro.net.simnet import Message, Network, Node
from repro.policy.acceptance import TrustPolicy
from repro.store.dht import controllers, nc, replication, wire


class _RingView:
    """A failure-aware view of the ring, shared by the store and all hosts.

    Ownership of a key routes to the next live node clockwise when the
    primary owner has failed — the standard DHT takeover rule.
    """

    def __init__(self, ring: HashRing) -> None:
        self._ring = ring
        self.failed: set = set()

    def owner(self, key: str) -> str:
        """The live owner of ``key``, routing around failed hosts."""
        return self._ring.owner_excluding(key, self.failed)

    def owners(self, key: str, count: int) -> List[str]:
        """The key's live owner followed by its live replica successors
        (successor replication's placement list, at most ``count``)."""
        return self._ring.successors(key, count, excluded=self.failed)

    def by_owner(
        self, keys: Iterable[Any], ring_key: Callable[[Any], str] = wire.txn_key
    ) -> Dict[str, List[Any]]:
        """``keys`` grouped by the live owner of ``ring_key(key)``, in
        first-seen order: what a batched request sends each owner."""
        groups: Dict[str, List[Any]] = {}
        for key in keys:
            groups.setdefault(self.owner(ring_key(key)), []).append(key)
        return groups


class _HostNode(Node):
    """One physical DHT peer, hosting whatever roles the ring assigns it."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        ring: _RingView,
        replication: int,
        cache_bodies: bool = True,
        ship_context_free: bool = True,
    ) -> None:
        super().__init__(name)
        self.schema = schema
        # The failure-aware ring view shared with the store, and how many
        # copies of each record the ring keeps (1 = primary only).
        self.ring = ring
        self.replication = replication
        self.cache_bodies = cache_bodies
        self.ship_context_free = ship_context_free
        self.wipe()

    def wipe(self) -> None:
        """(Re)start with empty state — a crash loses everything the
        host held in memory.

        What survives a crash is whatever the rest of the ring holds:
        successor replicas (``replication >= 2``), the pollable epoch
        history, and the trust policies the driver re-sends on recovery.
        """
        # In-flight context-free derivations, keyed by token: the closure
        # bodies gathered so far and the antecedent fetches still pending.
        self.derivations: Dict[str, Dict[str, Any]] = {}
        # Closure bodies fetched by past derivations, kept for reuse: a
        # dependent published later shares most of its closure with its
        # antecedents, so each body crosses the ring to this controller
        # at most once (bounded by the same O(history) the controllers'
        # own transaction logs already occupy).
        self.cf_bodies: Dict[TransactionId, wire.Body] = {}
        # Epoch-allocator role.
        self.epoch_counter = 0
        # Epoch-controller role: epoch -> record.
        self.epochs: Dict[int, Dict[str, Any]] = {}
        # Transaction-controller role: tid -> record.
        self.txns: Dict[TransactionId, Dict[str, Any]] = {}
        # Value-controller role: (relation, row) -> producing tid.
        self.producers: Dict[Tuple[str, Tuple], TransactionId] = {}
        # Peer-coordinator role: participant -> record.
        self.peers: Dict[int, Dict[str, Any]] = {}
        # Trust conditions, replicated to every node at registration.
        self.policies: Dict[int, TrustPolicy] = {}
        # Dedup of served antecedent-forwarded requests: (token, tid).
        self.served: Set[Tuple[str, TransactionId]] = set()
        # Transactions whose full body each participant has already
        # received.  Clients cache transaction bodies in their soft state
        # (Section 5.2), so later deliveries of the same transaction —
        # e.g. an old antecedent reappearing in a new chain — only need a
        # small header, not the payload.
        self.delivered: Set[Tuple[int, TransactionId]] = set()
        # Fully network-centric mode (PR 5, batched wire protocol PR 8):
        # in-flight ``nc_request`` batches of extension derivations,
        # keyed by (client, request id), and the keys already accepted
        # (so an injected duplicate ``nc_request`` cannot restart one).
        self.nc_batches: Dict[Tuple[str, int], Dict[str, Any]] = {}
        self.nc_served: Set[Tuple[str, int]] = set()
        # The derivation table, root tid -> member closure -> row: an
        # extension is a pure function of its root and member set, so a
        # closure is flattened, digested and priced once for every
        # participant and round whose walk ends on it (the publish-time
        # context-free derivation seeds the full-closure row).  A root's
        # rows leave with its ``context_free`` — every registered
        # participant final — behind a FIFO backstop.  Soft state only:
        # never on a record, which replication ships.
        self.derived: Dict[
            TransactionId, Dict[FrozenSet[TransactionId], controllers.Derivation]
        ] = {}
        # (participant, tid) -> (applied-version, row).  The version is
        # only the no-traffic short-circuit: while it stands the row
        # answers the root with no verdict walk (no ``nc_fetch_batch``);
        # once it moved the walk runs again and the table, keyed by what
        # the walk ends on, still spares the derivation.  An entry
        # leaves with the participant's final verdict.
        self.nc_memo: Dict[
            Tuple[int, TransactionId], Tuple[int, controllers.Derivation]
        ] = {}
        # This controller's derivations (``misses``), table reuses after
        # a walk (``revalidations``), walks skipped (``hits``) and rows
        # seeded at publish (``shipped``).
        self.derive_stats = CacheStats()
        # ``_standing``'s memo: (policy, its rule count, tid) -> priority.
        self.priorities: Dict[Tuple[TrustPolicy, int, TransactionId], int] = {}
        # Successor replication (PR 6): the replicas this host holds for
        # keys it does not own, keyed by (role, key).
        self.replicas: Dict[Tuple[str, Any], Any] = {}
        # At-most-once epoch allocation: publisher -> (request id, epoch),
        # so a retried or duplicated request_epoch re-drives the same
        # epoch instead of burning a new one.
        self.last_alloc: Dict[int, Tuple[Any, int]] = {}

    def handle(self, network: Network, message: Message) -> None:
        """Dispatch on message kind through :data:`HANDLERS`."""
        handler = HANDLERS.get(message.kind)
        if handler is None:
            raise StoreError(f"host cannot handle message kind {message.kind!r}")
        handler(self, network, message)

    def _reply(self, network: Network, message: Message, **fields: Any) -> None:
        """Answer a request/reply exchange: the reply kind is the one
        :data:`~repro.store.dht.wire.REPLIES` pairs with the request and
        the request id is echoed, so the driver can match the reply
        across retries."""
        network.send(
            self.name,
            message.sender,
            wire.REPLIES[message.kind][0],
            req=message.payload.get("req"),
            **fields,
        )


#: The dispatch table: every message kind a host handles -> the function
#: ``(host, network, message)`` that handles it.  Everything else in
#: ``KINDS`` lands in a client's inbox: an answer (in a row of
#: ``REPLIES``), or the unsolicited ``nc_adjacency``.
HANDLERS: Dict[str, Callable[[_HostNode, Network, Message], None]] = {
    # replication and recovery
    "replicate": replication.on_replicate,
    "rebalance": replication.on_rebalance,
    # registration
    "register_policy": controllers.on_register_policy,
    # epoch allocator (Figure 6, messages 1-4)
    "request_epoch": controllers.on_request_epoch,
    "begin_epoch": controllers.on_begin_epoch,
    "epoch_begun": controllers.on_epoch_begun,
    "get_current_epoch": controllers.on_get_current_epoch,
    "poll_max_epoch": controllers.on_poll_max_epoch,
    "set_epoch_counter": controllers.on_set_epoch_counter,
    # epoch controller (Figure 6, messages 5-6)
    "publish_ids": controllers.on_publish_ids,
    "get_epoch_contents": controllers.on_get_epoch_contents,
    # value controllers (producer index)
    "lookup_producer": controllers.on_lookup_producer,
    "register_producer": controllers.on_register_producer,
    # transaction controllers
    "store_txn": controllers.on_store_txn,
    "cf_fetch": controllers.on_cf_fetch,
    "cf_data": controllers.on_cf_data,
    "cf_unknown": controllers.on_cf_unknown,
    "request_txn": controllers.on_request_txn,
    "record_decision": controllers.on_record_decision,
    # fully network-centric batches
    "nc_request": nc.on_nc_request,
    "nc_fetch_batch": nc.on_nc_fetch_batch,
    "nc_member_batch": nc.on_nc_member_batch,
    # peer coordinators
    "record_recon": controllers.on_record_recon,
    "get_last_recon": controllers.on_get_last_recon,
}
