"""The store driver: ``DhtUpdateStore`` over the simulated ring.

The driver is the client side of every protocol: it speaks for the
publishing/reconciling peers (one ``_ClientNode`` inbox each), routes
each request to the live owner of its key, and drains the network after
every step.  It also stands in for the participant's peer coordinator
where the paper leaves placement open (antecedent lookups, the
network-centric conflict assembly).

Fault tolerance, driver side (PR 6)
-----------------------------------

Successor replication lives with the hosts
(:mod:`repro.store.dht.replication`); the other two mechanisms that
close Section 5.2.2's failure sketch live here:

* **retry with request ids** — every request/reply exchange carries a
  request id that is stable across retries and echoed by the handler;
  the driver retries a missing reply with deterministic exponential
  backoff (bounded by ``max_retries``, then
  :class:`~repro.errors.RetryExhaustedError`).  Handlers are idempotent
  and the epoch allocator deduplicates ``request_epoch`` by id, so
  retries and injected duplicates never burn an epoch or skew a
  decision stream.
* **degradation** — cascaded retrievals (``request_txn``,
  ``nc_request``) are retried batch-wise under fresh tokens (the
  controllers' per-token dedup would silently absorb a same-token
  re-request); a store-computed derivation that still fails falls back
  to the client-computed path for that root (surfaced as a
  ``degraded`` hook event), preserving byte-identical decisions.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.cache import CacheStats, ConflictCache
from repro.core.decisions import ReconcileResult
from repro.core.extensions import (
    ReconciliationBatch,
    RelevantTransaction,
    TransactionGraph,
    UpdateExtension,
)
from repro.errors import RetryExhaustedError, StoreError, UnknownTransactionError
from repro.model.schema import Schema
from repro.model.transactions import Transaction, TransactionId
from repro.net.ring import HashRing
from repro.net.simnet import Message, Network, Node
from repro.policy.acceptance import TrustPolicy
from repro.store.base import DEFAULT_MESSAGE_LATENCY, UpdateStore
from repro.store.dht import wire
from repro.store.dht.host import _HostNode, _RingView
from repro.store.dht.replication import _install, allocator_counter, held_copy
from repro.store.logic import compute_antecedents
from repro.store.network_centric import (
    DirectLogStore,
    attach_assembled_payload,
)
from repro.store.registry import StoreCapabilities


class _ClientNode(Node):
    """The reconciling/publishing peer's endpoint: an inbox."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.inbox: List[Message] = []

    def handle(self, network: Network, message: Message) -> None:
        """Collect replies for the store driver to consume."""
        self.inbox.append(message)

    def drain(self) -> List[Message]:
        """Return and clear the inbox."""
        messages, self.inbox = self.inbox, []
        return messages


class DhtUpdateStore(UpdateStore):
    """Distributed update store over a simulated Pastry-style ring."""

    #: Honest flags: since PR 3 the DHT derives context-free extensions
    #: at publish time and ships them on fetch, and the driver keeps the
    #: confederation-wide pair memo — shipping parity with the central
    #: stores.  Since PR 5 it also implements the fully store-computed
    #: batch (``begin_network_reconciliation``): transaction controllers
    #: derive per-participant extensions over the ring and the driver —
    #: standing in for the participant's peer coordinator — assembles
    #: the conflict adjacency, closing the last quadrant of Figure 3.
    #: It is still simulated in-process, hence not durable.
    capabilities = StoreCapabilities(
        ships_context_free=True,
        shared_pair_memo=True,
        durable=False,
        network_centric_batches=True,
    )

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
        ship nothing, no pair memo travels, and the instance's
        capability flags are downgraded to match.

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
        if not ship_context_free:
            self.capabilities = replace(
                type(self).capabilities,
                ships_context_free=False,
                shared_pair_memo=False,
            )
        self._ship_context_free = ship_context_free
        #: The underlying simulated network (counters, fault injector).
        self.network = Network(latency=message_latency)
        host_names = [f"host:{i}" for i in range(hosts)]
        self._ring = _RingView(HashRing(host_names))
        self._hosts: Dict[str, _HostNode] = {}
        for name in host_names:
            node = _HostNode(
                name,
                schema,
                self._ring,
                replication_factor,
                cache_bodies=cache_bodies,
                ship_context_free=ship_context_free,
            )
            self._hosts[name] = node
            self.network.add_node(node)
        #: Copies kept per record (1 = primary only).
        self.replication_factor = replication_factor
        self._max_retries = max_retries
        self._req_counter = 0
        #: Retries performed so far (surfaced by reports and tests).
        self.retries = 0
        self._clients: Dict[int, _ClientNode] = {}
        self._policies: Dict[int, TrustPolicy] = {}
        self._token_counter = 0
        self._open_epochs: Dict[Tuple[int, int], List[TransactionId]] = {}
        # The confederation-wide pair memo, attached to every batch: it
        # validates entries by identity, and the controllers serve every
        # participant at one priority the *same* extension object.
        # Retention (complete_reconciliation) is the primary eviction;
        # the FIFO limit is the same backstop the direct-log stores'
        # shared memos carry.
        self._shared_pairs = ConflictCache(
            limit=DirectLogStore.SHARED_MEMO_LIMIT
        )
        # Peer-coordinator bookkeeping for the fully network-centric
        # batch (PR 5), maintained from the same ``record_decision``
        # feedback the controllers receive: the participant's open
        # deferred set (those roots re-enter every store-computed batch)
        # and a monotone applied-set version that drives the
        # controllers' per-participant extension memos.
        self._nc_peers: Dict[int, Dict[str, Any]] = {}
        # Per-participant conflict-pair caches for batch assembly (the
        # peer coordinator's working memory, held driver-side like the
        # other coordinator mirrors).
        self._nc_pair_caches: Dict[int, ConflictCache] = {}
        # The client half of the delta-encoded re-ship (PR 8): each
        # participant's retained assembled payloads (``nc_data`` entries,
        # which carry the controller's digest), keyed by root.  The
        # driver echoes the digest in ``nc_request`` and re-attaches the
        # payload on an ``nc_unchanged`` answer instead of receiving it
        # again.
        self._nc_retained: Dict[
            int, Dict[TransactionId, Dict[str, Any]]
        ] = {}

    # ------------------------------------------------------------------
    # Plumbing

    def _client(self, participant: int) -> _ClientNode:
        try:
            return self._clients[participant]
        except KeyError:
            raise StoreError(
                f"participant {participant} is not registered"
            ) from None

    def _run(self) -> None:
        """Drain the network and mirror its counters into ``perf``."""
        before_msgs = self.network.messages_delivered
        before_secs = self.network.simulated_seconds
        self.network.run()
        self.perf.charge(self.network.messages_delivered - before_msgs, 0.0)
        self.perf.simulated_seconds += (
            self.network.simulated_seconds - before_secs
        )

    def _owner(self, key: str) -> str:
        return self._ring.owner(key)

    # ------------------------------------------------------------------
    # Retryable request/reply transport (PR 6)

    def _request(
        self,
        client: _ClientNode,
        key: Optional[str],
        kind: str,
        *,
        recipient: Optional[str] = None,
        fragments: int = 1,
        size_bytes: int = 0,
        **payload: Any,
    ) -> Dict[str, Any]:
        """One request/reply exchange with bounded deterministic retry.

        The reply awaited is the one the protocol table pairs with
        ``kind`` (:data:`~repro.store.dht.wire.REPLIES`).  The request
        id stays stable across attempts (handlers are idempotent, and
        the epoch allocator deduplicates by it), the
        recipient is re-resolved from the ring per attempt when
        addressed by ``key`` (so a retry lands on the takeover owner),
        and each retry charges exponential backoff to the perf clock as
        its timeout cost.  Runs out of attempts ->
        :class:`~repro.errors.RetryExhaustedError`.
        """
        reply_kind = wire.REPLIES[kind]
        self._req_counter += 1
        req = self._req_counter
        target = recipient
        last_error: Optional[StoreError] = None
        for attempt in range(self._max_retries + 1):
            if key is not None:
                target = self._owner(key)
            if attempt:
                self._note_retry(kind, target, attempt)
            self.network.send(
                client.name,
                target,
                kind,
                fragments=fragments,
                size_bytes=size_bytes,
                req=req,
                **payload,
            )
            self._run()
            try:
                return self._expect(client, reply_kind, target, kind, req)
            except StoreError as error:
                last_error = error
        raise RetryExhaustedError(
            f"no {reply_kind!r} reply from {target!r} to {kind!r} "
            f"(request id {req}) after {self._max_retries + 1} attempts"
        ) from last_error

    def _expect(
        self,
        client: _ClientNode,
        reply_kind: str,
        target: Optional[str],
        kind: str,
        req: int,
    ) -> Dict[str, Any]:
        """Pop the first ``reply_kind`` message answering request ``req``
        from the inbox; error if absent, naming the pending request so a
        timeout is diagnosable."""
        for index, message in enumerate(client.inbox):
            if message.kind == reply_kind and message.payload.get("req") == req:
                client.inbox.pop(index)
                return message.payload
        raise StoreError(
            f"expected a {reply_kind!r} reply (pending request: {kind!r} "
            f"to {target!r}, request id {req!r}); inbox has "
            f"{[m.kind for m in client.inbox]}"
        )

    def _note_retry(
        self, kind: str, recipient: Optional[str], attempt: int
    ) -> None:
        """Charge a retry's timeout backoff and surface it as an event."""
        self.perf.simulated_seconds += self._message_latency * (2 ** attempt)
        self.retries += 1
        self._emit("retry", kind=kind, recipient=recipient, attempt=attempt)

    def _exhausted(self, what: str, pending) -> RetryExhaustedError:
        """The error for cascaded replies still missing for the
        transactions ``pending`` once the retry budget is spent."""
        missing = sorted(str(tid) for tid in pending)
        return RetryExhaustedError(
            f"{what} {missing} after {self._max_retries + 1} attempts"
        )

    # ------------------------------------------------------------------
    # Registration

    def register_participant(
        self, participant: int, policy: TrustPolicy
    ) -> None:
        """Join the confederation; trust conditions replicate to all hosts."""
        if participant in self._clients:
            raise StoreError(f"participant {participant} already registered")
        client = _ClientNode(f"client:{participant}")
        self._clients[participant] = client
        self._policies[participant] = policy
        self.network.add_node(client)
        for host in self._hosts:
            if host in self._ring.failed:
                continue  # re-sent by recover_host when it returns
            self._request(
                client,
                None,
                "register_policy",
                recipient=host,
                participant=participant,
                policy=policy,
            )
        client.drain()

    # ------------------------------------------------------------------
    # Publication (Figure 6)

    def begin_publish(self, participant: int) -> int:
        """Figure 6, messages 1-4: obtain an epoch from the allocator.

        The request id makes allocation at-most-once: the allocator
        re-drives the same epoch for a retried (or duplicated) request,
        so a lost ``begin_publishing`` reply never burns an epoch.
        """
        client = self._client(participant)
        reply = self._request(
            client,
            wire.ALLOCATOR_KEY,
            "request_epoch",
            publisher=participant,
        )
        client.drain()
        epoch = reply["epoch"]
        self._open_epochs[(participant, epoch)] = []
        return epoch

    def write_transactions(
        self, participant: int, epoch: int, transactions: Sequence[Transaction]
    ) -> None:
        """Ship transactions to their controllers under an open epoch."""
        client = self._client(participant)
        ids = self._open_epochs.get((participant, epoch))
        if ids is None:
            raise StoreError(
                f"epoch {epoch} is not being published by {participant}"
            )
        for transaction in transactions:
            if transaction.origin != participant:
                raise StoreError(
                    f"participant {participant} cannot publish {transaction.tid}"
                )

        def producer_of(key: Tuple[str, Tuple]) -> Optional[TransactionId]:
            """One round trip to the row's value controller.  Earlier
            transactions of the same batch have already registered
            their producers, so this resolves dependencies within a
            batch too."""
            relation, row = key
            return self._request(
                client,
                wire.value_key(relation, row),
                "lookup_producer",
                relation=relation,
                row=row,
            )["producer"]

        for transaction in transactions:
            antecedents = compute_antecedents(producer_of, transaction)
            order = epoch * wire.EPOCH_STRIDE + len(ids)
            self._request(
                client,
                wire.txn_key(transaction.tid),
                "store_txn",
                fragments=wire.payload_fragments(transaction),
                size_bytes=wire.body_bytes(transaction),
                transaction=transaction,
                antecedents=antecedents,
                order=order,
            )
            for update in transaction.updates:
                written = update.written_row()
                if written is not None:
                    self._request(
                        client,
                        wire.value_key(update.relation, written),
                        "register_producer",
                        relation=update.relation,
                        row=written,
                        tid=transaction.tid,
                    )
            client.drain()
            ids.append(transaction.tid)

    def finish_publish(self, participant: int, epoch: int) -> None:
        """Figure 6, messages 5-6: hand the id list to the epoch controller."""
        client = self._client(participant)
        ids = self._open_epochs.pop((participant, epoch), None)
        if ids is None:
            raise StoreError(
                f"epoch {epoch} is not being published by {participant}"
            )
        self._request(
            client,
            wire.epoch_key(epoch),
            "publish_ids",
            epoch=epoch,
            ids=ids,
        )
        client.drain()

    # ------------------------------------------------------------------
    # Reconciliation (Figure 7)

    def _discover_stable(
        self, participant: int, client: _ClientNode
    ) -> Tuple[int, List[TransactionId]]:
        """The retrieval front half shared by both reconciliation modes:
        find the most recent stable epoch, fetch the contents of every
        newly stable epoch (one batched request per distinct epoch
        controller), and record the reconciliation at the peer
        coordinator.  Returns ``(stable, tids)``: the newly stable
        transactions other participants published, in publish order —
        the candidate roots."""
        current = self._request(client, wire.ALLOCATOR_KEY, "get_current_epoch")[
            "epoch"
        ]

        last = self._request(
            client,
            wire.peer_key(participant),
            "get_last_recon",
            participant=participant,
        )["epoch"]

        by_controller: Dict[str, List[int]] = {}
        for epoch in range(last + 1, current + 1):
            controller = self._owner(wire.epoch_key(epoch))
            by_controller.setdefault(controller, []).append(epoch)
        per_epoch: Dict[int, Dict] = {}
        for controller, epochs in by_controller.items():
            reply = self._request(
                client,
                None,
                "get_epoch_contents",
                recipient=controller,
                epochs=epochs,
            )
            for entry in reply["results"]:
                per_epoch[entry["epoch"]] = entry
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

        self._request(
            client,
            wire.peer_key(participant),
            "record_recon",
            participant=participant,
            epoch=stable,
        )
        return stable, foreign

    def _retrieve_roots(
        self,
        participant: int,
        client: _ClientNode,
        root_tids: Set[TransactionId],
        graph: TransactionGraph,
    ) -> Dict[TransactionId, Dict[str, Any]]:
        """Figure-7 retrieval of ``root_tids`` with bounded batch retry.

        Adds every closure body delivered (roots included) to ``graph``
        and returns the as-root ``txn_data`` payloads.
        After each round the driver checks closure completeness — every
        antecedent of a delivered body must itself have been answered
        (``txn_data`` / ``txn_irrelevant`` / ``txn_unknown``) — and
        re-requests losses under a *fresh* token, because the
        controllers' per-token dedup would silently absorb a same-token
        re-request.  Losses that persist past ``max_retries`` raise
        :class:`~repro.errors.RetryExhaustedError`; a record that is
        genuinely gone answers ``txn_unknown`` and is not retried.
        """
        root_payloads: Dict[TransactionId, Dict[str, Any]] = {}
        bodies: Dict[TransactionId, Dict[str, Any]] = {}
        answered: Set[TransactionId] = set()
        root_answered: Set[TransactionId] = set()
        pending_roots = set(root_tids)
        pending_members: Set[TransactionId] = set()
        for attempt in range(self._max_retries + 1):
            if not pending_roots and not pending_members:
                break
            if attempt:
                self._note_retry("request_txn", None, attempt)
            self._token_counter += 1
            token = f"recon:{participant}:{self._token_counter}"
            for pending, as_root in (
                (pending_roots, True), (pending_members, False)
            ):
                for tid in sorted(pending):
                    self.network.send(
                        client.name,
                        self._owner(wire.txn_key(tid)),
                        "request_txn",
                        tid=tid,
                        participant=participant,
                        client=client.name,
                        token=token,
                        as_root=as_root,
                    )
            self._run()
            for message in client.drain():
                payload = message.payload
                if message.kind == "txn_data":
                    tid = payload["tid"]
                    answered.add(tid)
                    bodies.setdefault(tid, payload)
                    if payload["as_root"] and tid in root_tids:
                        root_answered.add(tid)
                        root_payloads.setdefault(tid, payload)
                elif message.kind in ("txn_irrelevant", "txn_unknown"):
                    tid = payload["tid"]
                    answered.add(tid)
                    root_answered.add(tid)
            pending_roots = set(root_tids) - root_answered
            needed: Set[TransactionId] = set()
            for payload in bodies.values():
                needed.update(payload["antecedents"])
            pending_members = needed - answered
        if pending_roots or pending_members:
            raise self._exhausted(
                f"reconciliation retrieval for participant {participant} "
                f"is missing replies for",
                pending_roots | pending_members,
            )
        for payload in bodies.values():
            graph.add(*wire.body(payload))
        return root_payloads

    def begin_reconciliation(self, participant: int) -> ReconciliationBatch:
        """Assemble the next batch via the distributed retrieval protocol."""
        client = self._client(participant)
        stable, foreign = self._discover_stable(participant, client)

        # Request every candidate root; controllers forward antecedents.
        graph = TransactionGraph()
        root_payloads = self._retrieve_roots(
            participant, client, set(foreign), graph
        )
        roots: List[RelevantTransaction] = []
        shipped: Dict[TransactionId, UpdateExtension] = {}
        for tid, payload in root_payloads.items():
            roots.append(wire.root(payload, payload["priority"]))
            if payload.get("context_free") is not None:
                shipped[tid] = payload["context_free"]
        batch = ReconciliationBatch(
            recno=stable,
            roots=sorted(roots, key=lambda r: r.order),
            graph=graph,
        )
        if self._ship_context_free:
            batch.extensions = shipped or None
            batch.pair_cache = self._shared_pairs
        return batch

    # ------------------------------------------------------------------
    # Fully network-centric reconciliation (PR 5)

    def _nc_peer(self, participant: int) -> Dict[str, Any]:
        """The driver's peer-coordinator record for ``participant``."""
        return self._nc_peers.setdefault(
            participant, {"version": 0, "deferred": set()}
        )

    def begin_network_reconciliation(
        self, participant: int
    ) -> ReconciliationBatch:
        """A fully store-computed batch over the ring (Figure 3's last
        quadrant).

        The epoch-discovery front half is identical to the
        client-centric protocol.  The candidate roots — newly stable
        transactions plus the participant's open deferred set, which the
        store reconsiders each round exactly like the central backends —
        are grouped by owning transaction controller and requested with
        one ``nc_request`` per controller: the controller derives each
        root's update extension against the participant's applied set
        (walking the closure with batched per-member verdict queries to
        the other controllers) and ships everything coalesced — one
        sized ``nc_data`` per controller, plus a tiny ``nc_unchanged``
        token for roots whose retained payload the client proved (by
        echoing the memo digest) to be current; those re-attach the
        retained assembled payload instead of travelling again.  The
        driver, standing in for the peer coordinator, runs the pairwise
        conflict assembly
        (:func:`~repro.store.network_centric.attach_assembled_payload`)
        and prices the adjacency shipment as one final sized message.

        A root whose derivation failed (a closure member's controller
        lost its record) degrades to the classic Figure-7 retrieval so
        the client computes — and decides — exactly as it would have
        client-centrically.
        """
        client = self._client(participant)
        stable, candidates = self._discover_stable(participant, client)
        peer = self._nc_peer(participant)
        for tid in sorted(peer["deferred"]):
            if tid not in candidates:
                candidates.append(tid)

        token = ""
        retained = self._nc_retained.setdefault(participant, {})
        pending = list(candidates)
        answered: Set[TransactionId] = set()
        data_payloads: Dict[TransactionId, Dict[str, Any]] = {}
        failed: List[TransactionId] = []
        # Each root's terminal answer arrives inside its controller's
        # coalesced reply: a ``data`` entry carries the payload, an
        # ``irrelevant``/``unknown`` entry ends the root's retrieval
        # without one (a decided/untrusted root, or one whose controller
        # lost its record, drops out of the batch exactly as it does on
        # the client-centric path), a ``failed`` entry degrades the root
        # to Figure-7 retrieval, and an ``nc_unchanged`` digest token
        # re-attaches the retained payload of an earlier round.  Roots
        # with *no* answer are transport losses, retried under a fresh
        # token (stale in-flight batch traffic then references a dead
        # batch key and is ignored).
        for attempt in range(self._max_retries + 1):
            if not pending:
                break
            if attempt:
                self._note_retry("nc_request", None, attempt)
            self._token_counter += 1
            token = f"ncrecon:{participant}:{self._token_counter}"
            by_controller: Dict[str, List[TransactionId]] = {}
            for tid in pending:
                by_controller.setdefault(
                    self._owner(wire.txn_key(tid)), []
                ).append(tid)
            for controller in sorted(by_controller):
                roots_payload = []
                for tid in by_controller[controller]:
                    # Echo the retained payload's digest even across
                    # applied-version bumps: the controller compares it
                    # with the digest of the closure its walk ends on,
                    # so an unchanged one still comes back as a token.
                    held = retained.get(tid)
                    digest = held["digest"] if held is not None else None
                    roots_payload.append({"tid": tid, "digest": digest})
                self.network.send(
                    client.name,
                    controller,
                    "nc_request",
                    size_bytes=(
                        wire.HEADER_WIRE_BYTES
                        + len(roots_payload)
                        * (wire.TID_WIRE_BYTES + wire.DIGEST_WIRE_BYTES)
                    ),
                    roots=roots_payload,
                    participant=participant,
                    version=peer["version"],
                    client=client.name,
                    token=token,
                )
            self._run()
            for message in client.drain():
                payload = message.payload
                if message.kind == "nc_data":
                    for entry in payload["entries"]:
                        tid = entry["tid"]
                        answered.add(tid)
                        if entry["status"] == "data":
                            data_payloads.setdefault(tid, entry)
                        elif entry["status"] == "failed":
                            if tid not in data_payloads and tid not in failed:
                                failed.append(tid)
                elif message.kind == "nc_unchanged":
                    for entry in payload["entries"]:
                        tid = entry["tid"]
                        held = retained.get(tid)
                        if (
                            held is not None
                            and held["digest"] == entry["digest"]
                        ):
                            answered.add(tid)
                            data_payloads.setdefault(tid, held)
                        # A token for a payload the client no longer
                        # holds is not an answer: the root stays
                        # pending and the retry carries no digest,
                        # forcing the full-payload fallback.
            pending = [tid for tid in pending if tid not in answered]
        if pending:
            raise self._exhausted(
                f"network-centric retrieval for participant {participant} "
                f"is missing replies for",
                pending,
            )

        roots: List[RelevantTransaction] = []
        graph = TransactionGraph()
        derived: Dict[TransactionId, UpdateExtension] = {}
        for payload in data_payloads.values():
            graph.add(*wire.body(payload))
            for member in payload["members"]:
                graph.add(*member)
            roots.append(wire.root(payload, payload["priority"]))
            if payload["extension"] is not None:
                derived[payload["tid"]] = payload["extension"]

        # Retain this round's assembled payloads client-side: while the
        # applied-set version is unchanged, the next round's controllers
        # answer with ``nc_unchanged`` digest tokens and the retained
        # entry is re-attached instead of re-shipped — the delta
        # encoding's client half.  (complete_reconciliation prunes the
        # retention to the still-deferred roots.)
        for tid, payload in data_payloads.items():
            if payload["extension"] is not None and payload.get("digest"):
                retained[tid] = payload

        if failed:
            # Degraded roots travel the classic client-centric protocol;
            # the engine recomputes their extensions locally, reaching
            # byte-identical decisions.
            self._emit(
                "degraded",
                participant=participant,
                roots=[str(tid) for tid in failed],
            )
            for payload in self._retrieve_roots(
                participant, client, set(failed), graph
            ).values():
                roots.append(wire.root(payload, payload["priority"]))

        roots.sort(key=lambda root: root.order)
        batch = ReconciliationBatch(recno=stable, roots=roots, graph=graph)
        extensions = {
            root.tid: derived[root.tid]
            for root in roots
            if root.tid in derived
        }
        pair_cache = self._nc_pair_caches.get(participant)
        if pair_cache is None:
            pair_cache = self._nc_pair_caches[participant] = ConflictCache()
        attach_assembled_payload(self.schema, batch, extensions, pair_cache)
        pair_cache.prune(extensions)

        # The assembled adjacency travels from the peer coordinator as
        # one sized message (extensions already paid their fragments on
        # each nc_data delivery).
        edges = sum(len(adj) for adj in batch.conflicts.values()) // 2
        self.network.send(
            self._owner(wire.peer_key(participant)),
            client.name,
            "nc_adjacency",
            fragments=1 + edges,
            size_bytes=wire.HEADER_WIRE_BYTES * (1 + edges),
            token=token,
        )
        self._run()
        client.drain()

        if self._ship_context_free:
            # The engine's incremental conflict index consults the
            # batch's pair memo when it rebuilds soft state.  The pairs
            # worth sharing here are the ones this assembly just
            # compared — the per-participant extensions never appear in
            # the confederation-wide context-free memo, so attaching
            # that one (as this path once did) could never hit.
            # Identity validation keeps the reuse exact, so decisions
            # are unchanged; only the redundant re-comparisons go away.
            batch.pair_cache = pair_cache
        return batch

    # ------------------------------------------------------------------

    def complete_reconciliation(
        self, participant: int, result: ReconcileResult
    ) -> None:
        """Notify each transaction controller of the decision.

        Acks are matched per transaction id; unacknowledged decisions
        are re-sent (recording is idempotent) up to the retry budget.
        """
        client = self._client(participant)
        pending: Dict[TransactionId, str] = {}
        for tid in result.applied:
            pending[tid] = "applied"
        for tid in result.rejected:
            pending[tid] = "rejected"
        for tid in result.deferred:
            pending[tid] = "deferred"
        retired_set: Set[TransactionId] = set()
        for attempt in range(self._max_retries + 1):
            if not pending:
                break
            if attempt:
                self._note_retry("record_decision", None, attempt)
            for tid in sorted(pending):
                self.network.send(
                    client.name,
                    self._owner(wire.txn_key(tid)),
                    "record_decision",
                    tid=tid,
                    participant=participant,
                    verdict=pending[tid],
                )
            self._run()
            for message in client.drain():
                if message.kind != "decision_recorded":
                    continue
                pending.pop(message.payload["tid"], None)
                if message.payload.get("retired"):
                    retired_set.add(message.payload["tid"])
        if pending:
            raise self._exhausted(
                f"decisions for participant {participant} unacknowledged for",
                pending,
            )
        # Peer-coordinator upkeep for the store-computed batch: the open
        # deferred set re-enters every network-centric batch, and the
        # applied-set version validates the controllers' per-participant
        # extension memos.  (Upstream results carry only *newly* deferred
        # roots; removal happens on the eventual final verdict.)
        peer = self._nc_peer(participant)
        peer["deferred"].update(result.deferred)
        peer["deferred"].difference_update(result.applied)
        peer["deferred"].difference_update(result.rejected)
        if result.applied:
            peer["version"] += 1
        # Only still-deferred roots can ever be answered with an
        # ``nc_unchanged`` token again, so the client's retained
        # payloads shrink to exactly that set.
        retained = self._nc_retained.get(participant)
        if retained is not None:
            for tid in [t for t in retained if t not in peer["deferred"]]:
                del retained[tid]
        if retired_set:
            # Controllers dropped their derived extensions; retire the
            # shared pair-memo entries of the same roots.
            self._shared_pairs.discard(sorted(retired_set))

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
        live = set(self._hosts) - self._ring.failed - {host_name}
        if not live:
            raise StoreError("cannot fail the last live host")
        self.network.fail_node(host_name)
        self._hosts[host_name].wipe()
        self._ring.failed.add(host_name)
        self._emit("fault", action="crash", host=host_name)

    def recover_host(self, host_name: str) -> None:
        """Bring a crashed host back onto the ring.

        The returning host rejoins with empty state: ownership routes
        back to it immediately, the driver re-sends every trust policy
        (policies replicate to all hosts at registration), and a
        ``rebalance`` sweep makes each live host re-ship every record
        the returning host should hold — as owner or replica successor
        — and re-file its own copies under the restored ownership map.
        All recovery traffic runs through the normal network
        accounting, so its cost is measurable.
        """
        if host_name not in self._hosts:
            raise StoreError(f"unknown host {host_name!r}")
        if host_name not in self._ring.failed:
            raise StoreError(f"host {host_name!r} is not failed")
        self.network.recover_node(host_name)
        self._ring.failed.discard(host_name)
        client = next(iter(self._clients.values()), None)
        sender = client.name if client is not None else host_name
        for participant, policy in self._policies.items():
            self.network.send(
                sender,
                host_name,
                "register_policy",
                participant=participant,
                policy=policy,
            )
        for name in self._hosts:
            if name == host_name or name in self._ring.failed:
                continue
            self.network.send(sender, name, "rebalance", target=host_name)
        self._run()
        if client is not None:
            client.drain()
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
        client = self._client(participant)
        live_hosts = [
            name for name in self._hosts if name not in self._ring.failed
        ]
        largest = 0
        for host in live_hosts:
            reply = self._request(
                client, None, "poll_max_epoch", recipient=host
            )
            largest = max(largest, reply["epoch"])
        reply = self._request(
            client,
            wire.ALLOCATOR_KEY,
            "set_epoch_counter",
            epoch=largest,
        )
        client.drain()
        return reply["epoch"]

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
        self._client(participant)  # validate registration
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
        """Applied transactions (publish order) plus rejected/deferred ids.

        Aggregated across controllers by the driver (state reconstruction
        is a maintenance operation, not part of the timed protocols).
        """
        self._client(participant)  # validate registration
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
        applied: List[Tuple[int, Transaction]] = []
        rejected: List[TransactionId] = []
        deferred: List[TransactionId] = []
        for tid, record in records.items():
            verdict = record["decisions"].get(participant)
            if verdict == "applied":
                applied.append((record["order"], record["transaction"]))
            elif verdict == "rejected":
                rejected.append(tid)
            elif verdict == "deferred":
                deferred.append(tid)
        applied.sort(key=lambda pair: pair[0])
        return (
            [transaction for _order, transaction in applied],
            sorted(rejected),
            sorted(deferred),
        )

    def _nc_lookup(self, tid: TransactionId) -> wire.Body:
        """Driver-side transaction lookup (used by state reconstruction).

        Falls back from the owner's primary to any surviving copy —
        body, antecedents, and order are immutable, so every copy
        agrees.  (A maintenance read, not part of the timed protocols.)
        """
        controller = self._hosts[self._owner(wire.txn_key(tid))]
        for host in (controller, *self._hosts.values()):
            record = held_copy(host, "txn", tid)
            if record is not None:
                return wire.body(record)
        raise UnknownTransactionError(str(tid))
