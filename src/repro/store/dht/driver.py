"""The store driver: ``DhtUpdateStore`` over the simulated ring.

The driver is the client side of every protocol, written as scripts
over the request engine (:mod:`repro.store.dht.client`): it speaks for
the publishing/reconciling peers (one :class:`_Peer` record each), says
which ring key or host each request goes to and what its answers mean,
and leaves sending, waiting, retrying and giving up — the driver side of
Section 5.2.2's failure sketch — to the engine.  It also stands in for
the participant's peer coordinator where the paper leaves placement open
(antecedent lookups, the network-centric conflict assembly).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cache import CacheStats, ConflictGraph
from repro.core.conflicts import IncrementalConflictIndex
from repro.core.decisions import ReconcileResult
from repro.core.extensions import (
    ReconciliationBatch,
    RelevantTransaction,
    TransactionGraph,
    UpdateExtension,
)
from repro.errors import StoreError, UnknownTransactionError
from repro.model.schema import Schema
from repro.model.transactions import Transaction, TransactionId
from repro.net.ring import HashRing
from repro.net.simnet import Message, Network
from repro.policy.acceptance import TrustPolicy
from repro.store.base import DEFAULT_MESSAGE_LATENCY, UpdateStore
from repro.store.dht import client, wire
from repro.store.dht.host import _HostNode, _RingView
from repro.store.dht.replication import _install, allocator_counter, held_copy
from repro.store.logic import ProducerIndex, batch_antecedents, register_producers
from repro.store.network_centric import (
    DirectLogStore,
    attach_assembled_payload,
)


class _Peer:
    """Everything the driver keeps for one registered participant."""

    __slots__ = (
        "participant", "node", "policy", "published", "producers", "version", "deferred",
        "pairs", "retained",
    )

    def __init__(self, participant: int, policy: TrustPolicy) -> None:
        self.participant = participant
        #: The participant's endpoint on the network: its inbox.
        self.node = client._ClientNode(f"client:{participant}")
        #: Its trust conditions, re-sent to a host that recovers.
        self.policy = policy
        #: Every tid its epochs list (only it can publish its own tids).
        self.published: Set[TransactionId] = set()
        #: Producer-index entries of those tids not yet acknowledged.
        self.producers: ProducerIndex = {}
        # Peer-coordinator bookkeeping for the store-computed batch, kept
        # by ``settle``: the applied-set version that drives the
        # controllers' per-participant memos, and the open deferred set.
        self.version = 0
        self.deferred: Set[TransactionId] = set()
        #: The conflict index its store-computed batches are assembled on.
        self.pairs = IncrementalConflictIndex()
        #: The client half of the delta-encoded re-ship: root -> the
        #: ``nc_data`` entry last received, whose digest ``nc_request``
        #: echoes and which an ``nc_unchanged`` answer re-attaches.
        self.retained: Dict[TransactionId, Dict[str, Any]] = {}

    def retain(
        self, data: Dict[TransactionId, Dict[str, Any]], derived: Dict[TransactionId, Any]
    ) -> Set[TransactionId]:
        """Retain this round's payloads of the ``derived`` roots that
        carry a digest.  Returns the roots that came back with the
        digest already held: an edge depends on its two extensions
        alone, so the peer holds last batch's edges between two of them."""
        unchanged = {
            tid for tid, held in self.retained.items()
            if tid in derived and held["digest"] == data[tid].get("digest")
        }
        for tid in derived:
            if data[tid].get("digest"):
                self.retained[tid] = data[tid]
        return unchanged

    def settle(self, schema: Schema, result: ReconcileResult, version: int) -> None:
        """Upkeep after a reconcile: a root leaves the deferred set on its
        final verdict (a result lists only *newly* deferred ones), only a
        still-deferred root can be answered with a token again, and the
        assembly index lets go of the decided roots."""
        self.deferred.update(result.deferred)
        self.deferred.difference_update((*result.applied, *result.rejected))
        self.version = version
        for tid in [t for t in self.retained if t not in self.deferred]:
            del self.retained[tid]
        self.pairs.discard(schema, (*result.applied, *result.rejected))


class DhtUpdateStore(UpdateStore):
    """Distributed update store over a simulated Pastry-style ring.

    The DHT derives context-free extensions at publish time and ships
    them on fetch, and the driver keeps the confederation-wide pair
    memo — shipping parity with the central stores.  It also
    implements the fully store-computed batch
    (``begin_network_reconciliation``): transaction controllers derive
    per-participant extensions over the ring and the driver — standing
    in for the participant's peer coordinator — assembles the conflict
    adjacency, closing the last quadrant of Figure 3.
    """

    #: Every message kind the store's network carries: what a fault
    #: plan's ``MessageFault.kind`` is checked against at ``open()``.
    message_kinds = wire.KINDS

    def __init__(
        self,
        schema: Schema,
        hosts: int = 4,
        message_latency: float = DEFAULT_MESSAGE_LATENCY,
        cache_bodies: bool = True,
        ship_context_free: bool = True,
        real_latency: bool = False,
        replication_factor: int = 1,
        max_retries: int = 3,
    ) -> None:
        """``cache_bodies=False`` ablates the soft-state body cache:
        controllers re-ship full transaction payloads on every delivery,
        reproducing the round-trip-heavy behaviour the paper's early
        prototypes suffered from ("it was vital to reduce the number of
        messages sent between the update store and each participant").
        ``ship_context_free=False`` restores the paper's
        client-compute-only distributed store: controllers derive and
        ship nothing, and no pair memo travels.

        ``replication_factor=k`` keeps each record on its owner plus the
        next ``k - 1`` live ring successors (priced ``replicate``
        messages), so a host crash is survivable without data loss;
        ``max_retries`` bounds the per-request retry budget the driver
        spends before raising
        :class:`~repro.errors.RetryExhaustedError`."""
        super().__init__(schema, message_latency, real_latency=real_latency)
        if hosts < 1:
            raise StoreError("the DHT needs at least one host node")
        if replication_factor < 1:
            raise StoreError("replication_factor must be >= 1")
        if max_retries < 0:
            raise StoreError("max_retries must be >= 0")
        self._ship_context_free = ship_context_free
        #: The underlying simulated network (counters, fault injector).
        self.network = Network(latency=message_latency)
        #: The hosts a fault plan's ``HostCrash.host`` may name (checked at open()).
        self.host_names = tuple(f"host:{i}" for i in range(hosts))
        self._ring = _RingView(HashRing(self.host_names))
        self._hosts = {name: _HostNode(
            name, schema, self._ring, replication_factor,
            cache_bodies=cache_bodies, ship_context_free=ship_context_free,
        ) for name in self.host_names}
        for host in self._hosts.values():
            self.network.add_node(host)
        #: Copies kept per record (1 = primary only).
        self.replication_factor = replication_factor
        # The request engine's state (:mod:`repro.store.dht.client`):
        # the retry budget, and the request-id and token counters.
        self._max_retries = max_retries
        self._req_counter = 0
        self._token_counter = 0
        #: Retries performed so far (surfaced by reports and tests).
        self.retries = 0
        self._peers: Dict[int, _Peer] = {}
        self._open_epochs: Dict[Tuple[int, int], List[TransactionId]] = {}
        # The confederation-wide conflict graph, attached to every batch
        # and read by every peer's assembly index: edges hang on the
        # extension objects, and the controllers serve every participant
        # the *same* object per (root, closure), re-priced.  Retention
        # (complete_reconciliation) is the primary eviction; the FIFO
        # limit is the same backstop the direct-log stores' shared memos
        # carry.
        self._shared_pairs = ConflictGraph(limit=DirectLogStore.SHARED_MEMO_LIMIT)

    # ------------------------------------------------------------------
    # Plumbing

    def _peer(self, participant: int) -> _Peer:
        try:
            return self._peers[participant]
        except KeyError:
            raise StoreError(f"participant {participant} is not registered") from None

    def _owner(self, key: str) -> str:
        return self._ring.owner(key)

    def _controller(self, tid: TransactionId) -> str:
        return self._owner(wire.txn_key(tid))

    def _live_hosts(self, besides: Optional[str] = None) -> List[str]:
        return [name for name in self._hosts if name not in self._ring.failed and name != besides]

    # ------------------------------------------------------------------
    # Registration

    def register_participant(self, participant: int, policy: TrustPolicy) -> None:
        """Join the confederation; trust conditions replicate to all hosts
        (a failed one is sent them by ``recover_host`` when it returns)."""
        if participant in self._peers:
            raise StoreError(f"participant {participant} already registered")
        peer = self._peers[participant] = _Peer(participant, policy)
        self.network.add_node(peer.node)
        for host in self._live_hosts():
            self._register_policy(peer, peer, host)

    def _register_policy(self, sender: _Peer, peer: _Peer, host: str) -> None:
        client.request(
            self, sender.node, None, "register_policy", recipient=host,
            participant=peer.participant, policy=peer.policy,
        )

    # ------------------------------------------------------------------
    # Publication (Figure 6)

    def begin_publish(self, participant: int) -> int:
        """Figure 6, messages 1-4: obtain an epoch from the allocator.

        The request id makes allocation at-most-once: the allocator
        re-drives the same epoch for a retried (or duplicated) request.
        An epoch the participant left open (its id list lost) closes first.
        """
        node = self._peer(participant).node
        for key in [key for key in self._open_epochs if key[0] == participant]:
            self.finish_publish(*key)
        epoch = client.request(
            self, node, wire.ALLOCATOR_KEY, "request_epoch", publisher=participant
        )["epoch"]
        self._open_epochs[(participant, epoch)] = []
        return epoch

    def write_transactions(
        self, participant: int, epoch: int, transactions: Sequence[Transaction]
    ) -> None:
        """Ship transactions to their controllers under an open epoch:
        one ``lookup_producer`` and one ``register_producer`` per value
        controller, one ``store_txn`` per body.  A batch naming a tid
        this peer already published, or one twice, is refused first."""
        peer = self._peer(participant)
        ids = self._open_epochs.get((participant, epoch))
        if ids is None:
            raise StoreError(f"epoch {epoch} is not being published by {participant}")
        batch: Set[TransactionId] = set()
        for transaction in transactions:
            if transaction.origin != participant:
                raise StoreError(
                    f"participant {participant} cannot publish {transaction.tid}"
                )
            if transaction.tid in peer.published or transaction.tid in batch:
                raise StoreError(f"transaction {transaction.tid} was already published")
            batch.add(transaction.tid)

        def look_up(rows: List[Tuple[str, Tuple]]) -> ProducerIndex:
            """One ``lookup_producer`` per value controller of ``rows``."""
            found: ProducerIndex = {}
            client.batched(
                self, peer.node, "lookup_producer", rows, wire.ROLES["producer"].ring_key,
                lambda mine: dict(rows=mine, **wire.price("lookup_producer", len(mine))),
                lambda mine, reply: found.update(zip(mine, reply["producers"])),
            )
            return found

        antecedents, _produced = batch_antecedents(transactions, look_up)
        for transaction, antecedents_of in zip(transactions, antecedents):
            client.request(
                self, peer.node, wire.txn_key(transaction.tid), "store_txn",
                fragments=wire.payload_fragments(transaction),
                size_bytes=wire.body_bytes(transaction),
                transaction=transaction,
                antecedents=antecedents_of,
                order=epoch * wire.EPOCH_STRIDE + len(ids), version=peer.version,
            )
            ids.append(transaction.tid)
            peer.published.add(transaction.tid)  # the epoch will list it
            register_producers(peer.producers, transaction)
        self._register_producers(peer)

    def _register_producers(self, peer: _Peer) -> None:
        """Send the peer's unacknowledged producer entries, one batch per value controller."""
        pending = peer.producers

        def acknowledged(rows: List[Tuple[str, Tuple]], _ack: Dict[str, Any]) -> None:
            """An acknowledged controller holds its rows' entries."""
            for row in rows:
                pending.pop(row, None)

        client.batched(
            self, peer.node, "register_producer", list(pending), wire.ROLES["producer"].ring_key,
            lambda rows: dict(
                entries=[(row, pending[row]) for row in rows],
                **wire.price("register_producer", len(rows)),
            ),
            acknowledged,
        )

    def finish_publish(self, participant: int, epoch: int) -> None:
        """Figure 6, messages 5-6: the id list, kept until the epoch
        controller acknowledges it, once every producer entry of what it
        lists is acknowledged (a lost batch is re-sent here)."""
        peer = self._peer(participant)
        ids = self._open_epochs.get((participant, epoch))
        if ids is None:
            raise StoreError(f"epoch {epoch} is not being published by {participant}")
        if peer.producers:
            self._register_producers(peer)
        client.request(self, peer.node, wire.epoch_key(epoch), "publish_ids", epoch=epoch, ids=ids)
        del self._open_epochs[(participant, epoch)]

    def unpublished(self, participant: int, transactions: Sequence[Transaction]):
        """See the base class: an epoch lists each body once its store is acknowledged."""
        return [t for t in transactions if t.tid not in self._peer(participant).published]

    # ------------------------------------------------------------------
    # Reconciliation (Figure 7)

    def _discover(self, peer: _Peer) -> Tuple[int, List[TransactionId]]:
        """The retrieval front half shared by both reconciliation modes:
        find the most recent stable epoch, fetch the contents of every
        newly stable epoch (one batched request per distinct epoch
        controller), and record the reconciliation at the peer
        coordinator.  Returns ``(stable, tids)``: the newly stable
        transactions other participants published, in publish order —
        the candidate roots."""
        participant, node = peer.participant, peer.node
        current = client.request(self, node, wire.ALLOCATOR_KEY, "get_current_epoch")["epoch"]
        last = client.request(
            self, node, wire.peer_key(participant), "get_last_recon", participant=participant
        )["epoch"]

        per_epoch: Dict[int, Dict] = {}
        client.batched(
            self, node, "get_epoch_contents", range(last + 1, current + 1), wire.epoch_key,
            lambda epochs: dict(epochs=epochs),
            lambda epochs, reply: per_epoch.update(zip(epochs, reply["results"])),
        )
        foreign: List[TransactionId] = []
        stable = last
        for epoch in range(last + 1, current + 1):
            entry = per_epoch.get(epoch)
            if entry is None or not entry["exists"] or not entry["complete"]:
                break
            foreign.extend(
                tid for tid in entry["ids"] if tid.participant != participant
            )
            stable = epoch

        client.request(
            self, node, wire.peer_key(participant), "record_recon",
            participant=participant, epoch=stable,
        )
        return stable, foreign

    def _retrieve_roots(
        self, peer: _Peer, root_tids: Iterable[TransactionId]
    ) -> Iterable[Dict[str, Any]]:
        """Figure-7 retrieval of ``root_tids``: the ``txn_data`` payload
        of every closure body delivered, a root's the one answered *as*
        a root (``as_root``).  A cascade, not a batch: what it is owed
        grows with each delivered body's antecedents."""
        roots = set(root_tids)
        bodies: Dict[TransactionId, Dict[str, Any]] = {}
        as_roots: Dict[TransactionId, Dict[str, Any]] = {}
        closed: Set[TransactionId] = set()  # irrelevant or unknown

        def pending(token: str) -> List[client.Send]:
            """What the closure still lacks after a round: every root
            must be answered as one, and every antecedent of a delivered
            body itself answered (``txn_data`` / ``txn_irrelevant`` /
            ``txn_unknown``).  A record that is genuinely gone answers
            ``txn_unknown`` and is not asked for again."""
            needed = {tid for held in bodies.values() for tid in held["antecedents"]}
            return [
                (self._controller(tid), [tid], dict(
                    tid=tid, participant=peer.participant,
                    client=peer.node.name, token=token, as_root=as_root,
                ))
                for tids, as_root in (
                    (roots - closed - as_roots.keys(), True),
                    (needed - closed - bodies.keys(), False),
                )
                for tid in sorted(tids)
            ]

        def absorb(message: Message) -> None:
            """Keep a tid's first body, and its first as a root."""
            payload = message.payload
            if message.kind != "txn_data":
                closed.add(payload["tid"])
                return
            bodies.setdefault(payload["tid"], payload)
            if payload["as_root"]:
                as_roots.setdefault(payload["tid"], payload)

        client.exchange(self, peer.node, "request_txn", pending, absorb)
        return {**bodies, **as_roots}.values()

    @staticmethod
    def _fold(
        payloads: Iterable[Dict[str, Any]],
        graph: TransactionGraph,
        shipped: Optional[str],
    ) -> Tuple[List[RelevantTransaction], Dict[TransactionId, UpdateExtension]]:
        """The payload -> batch fold every retrieval ends in.  Each
        payload's body joins ``graph`` (a coalesced ``nc_data`` entry
        brings its member bodies along); each one answered as a root —
        every ``nc_data`` entry, a ``txn_data`` flagged ``as_root`` —
        becomes a root at the priority its controller computed, and the
        extension it carries under ``shipped`` (``None``: adopt none) is
        kept by root."""
        roots: List[RelevantTransaction] = []
        extensions: Dict[TransactionId, UpdateExtension] = {}
        for payload in payloads:
            graph.add(*wire.body(payload))
            for member in payload.get("members", ()):
                graph.add(*member)
            if payload.get("as_root", True):
                roots.append(wire.root(payload, payload["priority"]))
                if shipped is not None and payload[shipped] is not None:
                    extensions[payload["tid"]] = payload[shipped]
        return roots, extensions

    def begin_reconciliation(self, participant: int) -> ReconciliationBatch:
        """Assemble the next batch via the distributed retrieval protocol."""
        peer = self._peer(participant)
        stable, foreign = self._discover(peer)
        # Request every candidate root; controllers forward antecedents.
        graph = TransactionGraph()
        roots, shipped = self._fold(
            self._retrieve_roots(peer, foreign), graph, "context_free"
        )
        batch = ReconciliationBatch(recno=stable, roots=sorted(roots, key=lambda r: r.order), graph=graph)
        if self._ship_context_free:
            batch.extensions = shipped or None
            batch.pair_cache = self._shared_pairs
        return batch

    # ------------------------------------------------------------------
    # Fully network-centric reconciliation (PR 5)

    def begin_network_reconciliation(self, participant: int) -> ReconciliationBatch:
        """A fully store-computed batch over the ring (Figure 3's last
        quadrant), one step per method; the protocol is described in
        :mod:`repro.store.dht.nc`."""
        peer = self._peer(participant)
        stable, candidates = self._discover(peer)
        # The open deferred set re-enters every store-computed batch.
        candidates += sorted(peer.deferred.difference(candidates))
        data, failed = self._derive(peer, candidates)
        graph = TransactionGraph()
        roots, derived = self._fold(data.values(), graph, "extension")
        unchanged = peer.retain(data, derived)
        roots += self._degrade(peer, failed, graph)
        batch, edges = self._assemble(peer, stable, roots, graph, derived)
        self._ship_adjacency(peer, batch, edges, unchanged)
        return batch

    def _derive(
        self, peer: _Peer, candidates: List[TransactionId]
    ) -> Tuple[Dict[TransactionId, Dict[str, Any]], List[TransactionId]]:
        """One ``nc_request`` per owning controller of the candidate
        roots.  Returns the ``data`` entries by root and the roots whose
        derivation ``failed``."""
        data: Dict[TransactionId, Dict[str, Any]] = {}
        failed: List[TransactionId] = []

        def fields(asked: List[TransactionId]) -> Dict[str, Any]:
            """Each root echoes the retained payload's digest even across
            applied-version bumps: the controller compares it with the
            digest of the closure its walk ends on, so an unchanged one
            still comes back as a token."""
            return dict(
                wire.price("nc_request", len(asked)),
                roots=[
                    {"tid": tid, "digest": peer.retained.get(tid, {}).get("digest")}
                    for tid in asked
                ],
                participant=peer.participant, version=peer.version, client=peer.node.name,
            )

        def absorb(_asked: List[TransactionId], reply: Dict[str, Any]) -> List[TransactionId]:
            """Each root's terminal answer: a ``data`` entry carries the
            payload, an ``irrelevant``/``unknown`` entry ends the root's
            retrieval without one (a decided/untrusted root, or one whose
            controller lost its record, drops out of the batch exactly as
            it does on the client-centric path), a ``failed`` entry
            degrades the root to Figure-7 retrieval, and an ``unchanged``
            digest token re-attaches the retained payload of an earlier
            round."""
            settled = []
            for entry in reply["entries"]:
                tid = entry["tid"]
                if entry["status"] == "unchanged":
                    held = peer.retained.get(tid)
                    if held is None or held["digest"] != entry["digest"]:
                        # A token for a payload the client no longer
                        # holds is not an answer: the root stays owed and
                        # the retry carries no digest, forcing the
                        # full-payload fallback.
                        continue
                    entry = held
                settled.append(tid)
                if entry["status"] == "data":
                    data.setdefault(tid, entry)
                elif entry["status"] == "failed" and tid not in data and tid not in failed:
                    failed.append(tid)
            return settled

        client.batched(self, peer.node, "nc_request", candidates, wire.txn_key, fields, absorb)
        return data, failed

    def _degrade(
        self, peer: _Peer, failed: List[TransactionId], graph: TransactionGraph
    ) -> List[RelevantTransaction]:
        """The roots whose derivation failed, by the classic Figure-7
        retrieval: the engine recomputes their extensions locally,
        reaching byte-identical decisions."""
        if not failed:
            return []
        self._emit("degraded", participant=peer.participant, roots=[str(tid) for tid in failed])
        return self._fold(self._retrieve_roots(peer, failed), graph, None)[0]

    def _assemble(
        self,
        peer: _Peer,
        stable: int,
        roots: List[RelevantTransaction],
        graph: TransactionGraph,
        derived: Dict[TransactionId, UpdateExtension],
    ) -> Tuple[ReconciliationBatch, int]:
        """The peer coordinator's conflict assembly over the batch's
        roots; returns the batch and its number of conflict edges."""
        roots.sort(key=lambda root: root.order)
        batch = ReconciliationBatch(recno=stable, roots=roots, graph=graph)
        extensions = {root.tid: derived[root.tid] for root in roots if root.tid in derived}
        if self._ship_context_free:
            batch.pair_cache = self._shared_pairs
        return batch, attach_assembled_payload(self.schema, batch, extensions, peer.pairs)

    def _ship_adjacency(
        self, peer: _Peer, batch: ReconciliationBatch, edges: int, unchanged: Set[TransactionId]
    ) -> None:
        """Ship the conflict edges the peer lacks — those touching a new
        or changed root — as one sized ``nc_adjacency`` (extensions
        already paid on each ``nc_data``; departures need no wire)."""
        edges -= sum(len(unchanged & n) for t, n in batch.conflicts.items() if t in unchanged) // 2
        client.tell(
            self, self._owner(wire.peer_key(peer.participant)), [peer.node.name],
            "nc_adjacency", client=peer.node, **wire.price("nc_adjacency", edges),
        )

    # ------------------------------------------------------------------

    def complete_reconciliation(self, participant: int, result: ReconcileResult) -> None:
        """Notify the transaction controllers of the decisions: one
        ``record_decision`` per owning controller, listing its
        ``(tid, verdict)`` pairs under the applied-set version after them."""
        peer = self._peer(participant)
        version = peer.version + bool(result.applied)
        heads = set(result.accepted)  # the others were carried in by a later root
        verdicts = {tid: "applied" if tid in heads else "carried" for tid in result.applied}
        verdicts.update(dict.fromkeys(result.rejected, "rejected"))
        verdicts.update(dict.fromkeys(result.deferred, "deferred"))
        retired: Set[TransactionId] = set()

        client.batched(
            self, peer.node, "record_decision", sorted(verdicts), wire.txn_key,
            lambda tids: dict(
                wire.price("record_decision", len(tids)), participant=participant,
                version=version, entries=[(tid, verdicts[tid]) for tid in tids],
            ),
            lambda _tids, ack: retired.update(tid for tid, was in ack["entries"] if was),
        )
        peer.settle(self.schema, result, version)
        if retired:
            # Controllers dropped their derived extensions; unlink the
            # same roots from the shared conflict graph.
            self._shared_pairs.discard(sorted(retired))

    # ------------------------------------------------------------------
    # Failure injection and recovery (Section 5.2.2's sketch)

    def fail_host(self, host_name: str) -> None:
        """Take a physical host down, losing its in-memory state.

        Role ownership routes around failed hosts from now on (the next
        live node clockwise takes over each key), and the victim's
        state is wiped — a crash is honest.  What survives is whatever
        the rest of the ring holds: with ``replication_factor >= 2``
        the takeover owner serves every record from its successor
        replica (promoting it on first access), and the epoch
        allocator's counter can additionally be reconstructed by
        polling (:meth:`recover_epoch_allocator`) — the recovery path
        the paper sketches.  :meth:`recover_host` brings the host back
        and re-establishes the replication invariant.
        """
        if host_name not in self._hosts:
            raise StoreError(f"unknown host {host_name!r}")
        if host_name in self._ring.failed:
            raise StoreError(f"host {host_name!r} is already failed")
        if not self._live_hosts(besides=host_name):
            raise StoreError("cannot fail the last live host")
        self.network.fail_node(host_name)
        self._hosts[host_name].wipe()
        self._ring.failed.add(host_name)
        self._emit("fault", action="crash", host=host_name)

    def recover_host(self, host_name: str) -> None:
        """Bring a crashed host back onto the ring.

        The returning host rejoins with empty state: ownership routes
        back to it immediately, the driver re-sends every trust policy
        (policies replicate to all hosts at registration) as the
        request/reply exchange registration uses — a lost one is
        retried, because a host without a participant's policy answers
        that participant's every root ``irrelevant`` — and a
        ``rebalance`` sweep makes each live host re-ship every record
        the returning host should hold — as owner or replica successor
        — and re-file its own copies under the restored ownership map.
        ``rebalance`` has no reply and stays fire-and-forget:
        acknowledging it would add messages to every recovery.  All
        recovery traffic runs through the normal network accounting, so
        its cost is measurable.
        """
        if host_name not in self._hosts:
            raise StoreError(f"unknown host {host_name!r}")
        if host_name not in self._ring.failed:
            raise StoreError(f"host {host_name!r} is not failed")
        self.network.recover_node(host_name)
        self._ring.failed.discard(host_name)
        sender = next(iter(self._peers.values()), None)
        for peer in self._peers.values():
            self._register_policy(sender, peer, host_name)
        client.tell(
            self, sender.node.name if sender is not None else host_name,
            self._live_hosts(besides=host_name), "rebalance", target=host_name,
        )
        self._emit("recovery", kind="host", host=host_name)

    def allocator_host(self) -> str:
        """The host currently owning the epoch-allocator role."""
        return self._owner(wire.ALLOCATOR_KEY)

    def recover_epoch_allocator(self, participant: int) -> int:
        """Rebuild the epoch counter at the allocator role's new owner.

        ``participant`` drives the recovery: it polls every live host for
        the largest epoch it has seen and installs the maximum at the new
        allocator.  Returns the recovered epoch counter.
        """
        node = self._peer(participant).node
        largest = 0
        for host in self._live_hosts():
            reply = client.request(self, node, None, "poll_max_epoch", recipient=host)
            largest = max(largest, reply["epoch"])
        return client.request(
            self, node, wire.ALLOCATOR_KEY, "set_epoch_counter", epoch=largest
        )["epoch"]

    # ------------------------------------------------------------------
    # Introspection

    def current_epoch(self) -> int:
        """The allocator's epoch counter (read locally, no messages)."""
        return allocator_counter(self._hosts[self._owner(wire.ALLOCATOR_KEY)])

    def transaction_count(self) -> int:
        """Distinct transactions stored across controllers and replicas."""
        tids: Set[TransactionId] = set()
        for host in self._hosts.values():
            tids.update(host.txns)
            tids.update(key for role, key in host.replicas if role == "txn")
        return len(tids)

    def last_reconciliation_epoch(self, participant: int) -> int:
        """The peer coordinator's record (read locally, no messages)."""
        self._peer(participant)  # validate registration
        coordinator = self._hosts[self._owner(wire.peer_key(participant))]
        record = held_copy(coordinator, "peer", participant)
        return record["last_recon_epoch"] if record else 0

    def derivation_stats(self) -> CacheStats:
        """The controllers' derivation-table counters, summed over the
        hosts (a crash resets its host's, like the rest of its state)."""
        total = CacheStats()
        for host in self._hosts.values():
            total.add(host.derive_stats)
        return total

    def decided_transactions(self, participant: int):
        """The participant's verdicts (see the base class), aggregated
        across controllers by the driver (state reconstruction is a
        maintenance operation, not part of the timed protocols).
        """
        self._peer(participant)  # validate registration
        # Collect the most advanced copy of each record (the merge
        # rule replication files primaries by): primaries first,
        # replicas filling the gaps a crash left behind.
        records: Dict[TransactionId, Dict[str, Any]] = {}
        for host in self._hosts.values():
            for tid, record in host.txns.items():
                _install(records, tid, "txn", record, on_tie=False)
        for host in self._hosts.values():
            for (role, key), state in host.replicas.items():
                if role == "txn":
                    _install(records, key, "txn", state, on_tie=False)
        applied: List[Tuple[int, int, bool, Transaction, Tuple[TransactionId, ...]]] = []
        rejected: List[TransactionId] = []
        deferred: List[TransactionId] = []
        for tid, record in records.items():
            verdict = record["decisions"].get(participant)
            if verdict == "applied":
                stamp = record["stamps"][participant]
                applied.append((record["order"], *stamp, *wire.body(record)[:2]))
            elif verdict == "rejected":
                rejected.append(tid)
            elif verdict == "deferred":
                deferred.append(tid)
        return [entry[1:] for entry in sorted(applied)], sorted(rejected), sorted(deferred)

    def _nc_lookup(self, tid: TransactionId) -> wire.Body:
        """Driver-side transaction lookup (used by state reconstruction).

        Falls back from the owner's primary to any surviving copy —
        body, antecedents, and order are immutable, so every copy
        agrees.  (A maintenance read, not part of the timed protocols.)
        """
        controller = self._hosts[self._controller(tid)]
        for host in (controller, *self._hosts.values()):
            record = held_copy(host, "txn", tid)
            if record is not None:
                return wire.body(record)
        raise UnknownTransactionError(str(tid))
