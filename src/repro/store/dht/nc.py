"""Fully network-centric batches over the ring (PR 5, wire protocol PR 8).

``begin_network_reconciliation`` closes the last quadrant of Figure 3:
a *distributed* store whose batches arrive fully assembled.  Transaction
controllers already learn every participant's verdicts about their
transactions through the ``record_decision`` feedback; the reconciling
peer's driver groups its candidate roots by owning controller and sends
each controller one ``nc_request`` carrying all of them.  The
controller answers each root with its update extension *against that
participant's applied set*, walking the antecedent closure with
*batched* verdict queries: bodies cached from earlier derivations
(``cf_bodies``) make the closure structure locally known, so the walk
expands through them speculatively and collects every unresolved
member, then asks each member's controller in one
``nc_fetch_batch``/``nc_member_batch`` round trip per member controller
(the per-participant verdict must be refetched every round — the
mode's honest extra chatter — while bodies ride along only until this
controller has cached them).  The extensions and any bodies the
participant lacks return *coalesced*, as one sized ``nc_data`` message
per (controller, participant); the driver — standing in for the peer
coordinator, as it already does for antecedent lookups — runs the
pairwise conflict assembly and ships, as a final ``nc_adjacency``
message sized by them, only the conflict edges the peer lacks: those
touching a root new to the batch or whose digest changed (an edge
depends on its two extensions alone, so one between two unchanged roots
is last batch's; departures need no wire, the peer's own verdicts and
digests imply them).  The client then runs only ``CheckState``,
``DoGroup``, and application — decisions stay byte-identical to every
other path on the equivalence matrix.

What a walk ends on — the root and the member closure left once it
stopped at the participant's applied transactions — is all an extension
depends on, so each controller keeps one *derivation table* keyed by
exactly that (:class:`~repro.store.dht.controllers.Derivation`): a
closure is flattened, digested and priced once, however many
participants and rounds land on it, and the publish-time context-free
derivation seeds its full-closure row.  The per-(participant, root)
memo is only a pointer into the table stamped with the participant's
applied-set version: while the version stands it answers the root with
*no walk at all* (no ``nc_fetch_batch``); once it moved the verdicts
are refetched and only the derivation is reused.  A final verdict
retires the participant's pointer, the last participant's the rows.

Either way the repeated-deferral rounds the paper worries about are
*delta-encoded*: when the client proves (by echoing the row's content
digest) that it still retains the previous round's assembled payload,
the controller answers with a tiny ``nc_unchanged`` token instead of
re-shipping bodies — O(delta) re-delivery cost, not O(state) — with a
full-payload fallback when the client no longer holds it.  The
comparison is by *content*, not version: a walk that ends on the same
closure as before (disjoint from whatever was newly applied — the
common case) still answers with the token.  First deliveries are cheap
too: the extension travels dictionary-encoded against the member bodies
in the same reply, so only genuinely composed operations pay full
update bytes.

This module is the controller side: the per-request batch state machine
``nc_request`` -> (``nc_fetch_batch`` / ``nc_member_batch``)* ->
``nc_unchanged`` + ``nc_data``.  The driver side is
``DhtUpdateStore.begin_network_reconciliation``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.model.transactions import TransactionId
from repro.net.simnet import Message, Network
from repro.store.dht import wire
from repro.store.dht.controllers import (
    Derivation,
    _derivation,
    _first_delivery,
    _standing,
)
from repro.store.dht.replication import record

#: An ``nc_request`` batch's key: the client, and its request id (fresh
#: per attempt, so a retry opens a new batch and a duplicate none).
Token = Tuple[str, int]


def on_nc_request(host, network: Network, message: Message) -> None:
    """Open one participant's batch of candidate roots."""
    payload = message.payload
    token: Token = (payload["client"], payload["req"])
    if token in host.nc_served:
        return  # an injected duplicate of a batch already accepted
    host.nc_served.add(token)
    participant: int = payload["participant"]
    version: int = payload["version"]
    batch: Dict[str, Any] = {
        "participant": participant,
        "version": version,
        # Per-root walk state of the roots still walking.
        "roots": {},
        # Coalesced reply under construction: per-root entries, the
        # provably-unchanged digests, and the accumulated pricing.
        "entries": {},
        "unchanged": {},
        "fragments": 0,
        "size": wire.HEADER_WIRE_BYTES,
        # Member verdicts resolved this round (shared across the
        # batch's roots — one wire query per member per round), the
        # members already queried, the frontier still to query, and
        # which roots wait on which member.
        "resolved": {},
        "asked": set(),
        "to_ask": set(),
        "waiters": {},
    }
    host.nc_batches[token] = batch
    for entry in payload["roots"]:
        tid: TransactionId = entry["tid"]
        held = record(host, network, "txn", tid)
        if held is None:
            # Same terminal answer a client-centric request_txn gets
            # for a lost record: the root drops out of the batch
            # identically in both modes.
            batch["entries"][tid] = {"tid": tid, "status": "unknown"}
            continue
        verdict, priority = _standing(host, held, participant)
        if verdict in ("applied", "rejected") or priority <= 0:
            batch["entries"][tid] = {"tid": tid, "status": "irrelevant"}
            continue
        memo = host.nc_memo.get((participant, tid))
        if memo is not None and memo[0] == version:
            # The applied set has not moved: the row the last walk ended
            # on still answers the root, with no verdict query at all.
            host.derive_stats.hits += 1
            _stage(host, batch, held, priority, memo[1], entry.get("digest"))
            continue
        rstate: Dict[str, Any] = {
            "tid": tid,
            "record": held,
            "priority": priority,
            # The digest of the payload the client retains, if any (a
            # walk that ends on the same closure answers with a token).
            "want_digest": entry.get("digest"),
            # The members the walk has visited, and those whose verdict
            # it still waits for.
            "seen": {tid},
            "waiting": set(),
        }
        batch["roots"][tid] = rstate
        _expand(host, batch, rstate, held["antecedents"])
    _pump(host, network, token)


def _expand(host, batch: Dict[str, Any], rstate: Dict[str, Any], tids) -> None:
    """Advance one root's closure walk as far as local knowledge
    allows: resolve members whose verdict this controller holds (its
    own transactions) or that another root of this batch already
    resolved, expand *structurally* through the ``cf_bodies`` cache
    even before the member's verdict is back (the verdict only
    decides where flattening stops — fetching it is exactly what the
    batched query is for), and queue everything unresolved for the
    next ``nc_fetch_batch`` round."""
    participant = batch["participant"]
    worklist = list(tids)
    while worklist:
        tid = worklist.pop()
        if tid in rstate["seen"]:
            continue
        rstate["seen"].add(tid)
        resolution = batch["resolved"].get(tid)
        if resolution is None:
            held = host.txns.get(tid)
            if held is not None:
                # Our own transaction: verdict and body are local.
                if held["decisions"].get(participant) == "applied":
                    resolution = ("applied", None)
                else:
                    resolution = ("body", wire.body(held))
                batch["resolved"][tid] = resolution
        if resolution is None:
            # Remote member: its controller owes us the verdict
            # (and the body, unless cached).  Walk the known
            # structure now so the whole frontier lands in one
            # query round.
            rstate["waiting"].add(tid)
            batch["waiters"].setdefault(tid, set()).add(rstate["tid"])
            batch["to_ask"].add(tid)
            body = host.cf_bodies.get(tid)
        else:
            # An applied member stops the walk; an unknown one leaves a
            # hole that fails the root only if it is actually reachable.
            body = resolution[1]
        if body is not None:
            worklist.extend(body[1])


def _pump(host, network: Network, token: Token) -> None:
    """Finish roots whose walk completed, flush the batched member
    queries, and ship the coalesced replies once nothing is open."""
    batch = host.nc_batches[token]
    for tid in sorted(batch["roots"]):
        if not batch["roots"][tid]["waiting"]:
            _finish_root(host, batch, tid)
    queries = [tid for tid in sorted(batch["to_ask"]) if tid not in batch["asked"]]
    batch["asked"].update(queries)
    batch["to_ask"] = set()
    for controller, members in sorted(host.ring.by_owner(queries).items()):
        network.send(
            host.name,
            controller,
            "nc_fetch_batch",
            size_bytes=wire.HEADER_WIRE_BYTES + len(members) * wire.TID_WIRE_BYTES,
            token=token,
            participant=batch["participant"],
            reply_to=host.name,
            members=[
                {"tid": tid, "need_body": tid not in host.cf_bodies}
                for tid in members
            ],
        )
    if not batch["roots"]:
        _flush_batch(host, network, token)


def on_nc_fetch_batch(host, network: Network, message: Message) -> None:
    """Answer a batched member query: the participant's verdict for
    every member this controller owns, plus the bodies the asking
    controller does not hold yet — one reply per (controller,
    controller, round) instead of one per member."""
    payload = message.payload
    participant: int = payload["participant"]
    entries: List[Dict[str, Any]] = []
    fragments = 0
    size = wire.HEADER_WIRE_BYTES
    for member in payload["members"]:
        tid: TransactionId = member["tid"]
        size += wire.TID_WIRE_BYTES
        held = record(host, network, "txn", tid)
        if held is None:
            entries.append({"tid": tid, "status": "unknown"})
            continue
        applied = held["decisions"].get(participant) == "applied"
        transaction = None
        if not applied and member["need_body"]:
            transaction = held["transaction"]
            fragments += wire.payload_fragments(transaction)
            size += wire.body_bytes(transaction)
        entries.append(
            {
                "tid": tid,
                "status": "member",
                "applied": applied,
                "transaction": transaction,
                "antecedents": held["antecedents"],
                "order": held["order"],
            }
        )
    network.send(
        host.name,
        payload["reply_to"],
        "nc_member_batch",
        fragments=max(1, fragments),
        size_bytes=size,
        token=payload["token"],
        entries=entries,
    )


def on_nc_member_batch(host, network: Network, message: Message) -> None:
    """Absorb a member controller's verdicts and bodies into the batch."""
    payload = message.payload
    batch = host.nc_batches.get(payload["token"])
    if batch is None:
        return  # stale traffic for a finished or abandoned batch
    for entry in payload["entries"]:
        tid: TransactionId = entry["tid"]
        if tid in batch["resolved"]:
            continue  # an injected duplicate reply
        if entry["status"] == "unknown":
            resolution = ("unknown", None)
        elif entry["applied"]:
            resolution = ("applied", None)
        else:
            if entry["transaction"] is not None:
                body = wire.body(entry)
                host.cf_bodies.setdefault(tid, body)
            else:
                body = host.cf_bodies.get(tid)
            if body is None:  # pragma: no cover - protocol guarantee
                resolution = ("unknown", None)
            else:
                resolution = ("body", body)
        batch["resolved"][tid] = resolution
        for root_tid in sorted(batch["waiters"].pop(tid, ())):
            rstate = batch["roots"][root_tid]
            rstate["waiting"].discard(tid)
            if resolution[0] == "body":
                # A no-op where the speculative walk already went
                # through this body from cf_bodies.
                _expand(host, batch, rstate, resolution[1][1])
    _pump(host, network, payload["token"])


def _finish_root(host, batch: Dict[str, Any], root_tid: TransactionId) -> None:
    """Look up (or derive) and stage one finished root of the batch."""
    rstate = batch["roots"].pop(root_tid)
    held = rstate["record"]
    # The precise closure: reachable from the root through the resolved
    # bodies, stopping at the participant's applied transactions (the
    # speculative cf_bodies expansion may have walked past such a stop;
    # nothing beyond it ships).
    needed: Dict[TransactionId, wire.Body] = {root_tid: wire.body(held)}
    worklist: List[TransactionId] = list(held["antecedents"])
    while worklist:
        tid = worklist.pop()
        if tid in needed:
            continue
        kind, body = batch["resolved"][tid]
        if kind == "body":
            needed[tid] = body
            worklist.extend(body[1])
        elif kind == "unknown":
            # Part of the closure is gone (a controller lost the record
            # beyond the replication budget): the driver falls back to
            # the classic Figure-7 retrieval for this root and the
            # client computes — and decides — locally.
            batch["entries"][root_tid] = {"tid": root_tid, "status": "failed"}
            return
    row = _derivation(host, held, needed)
    if row.extension is not None:
        host.nc_memo[(batch["participant"], root_tid)] = (batch["version"], row)
    _stage(host, batch, held, rstate["priority"], row, rstate["want_digest"])


def _stage(
    host,
    batch: Dict[str, Any],
    held: Dict[str, Any],
    priority: int,
    row: Derivation,
    want_digest: Optional[str],
) -> None:
    """Stage one root's answer — its closure's derivation-table row —
    into the coalesced reply: a digest token, or the full payload.

    When the row's digest is the one the client echoed (``want_digest``)
    the client retains the identical assembled payload — even if its
    applied-set version moved, the closure the walk ended on is disjoint
    from whatever was newly applied — and the token alone answers the
    root; no body or extension byte travels again.

    Otherwise the payload ships, priced like ``txn_data``: each body
    not yet delivered to the participant (as this controller knows it —
    a body another controller delivered may be re-priced, a deliberately
    conservative estimate) pays its fragments and bytes; the derived
    extension rides dictionary-encoded against the member bodies the
    client holds (``Derivation.cost``); everything already held
    client-side — and every coalesced root beyond the first — rides in
    the one shared header.  A closure that does not flatten has no
    extension: its bodies ship alone, and the client's fallback
    recomputation reaches the same FlattenError and rejects the root,
    byte-identically to the client-centric path.
    """
    participant = batch["participant"]
    tid = held["transaction"].tid
    extension, digest = row.at(priority)
    if digest is not None and digest == want_digest:
        batch["unchanged"][tid] = digest
        return
    members = []
    for body in row.bodies:
        if _first_delivery(host, participant, body[0].tid):
            batch["fragments"] += wire.payload_fragments(body[0])
            batch["size"] += wire.body_bytes(body[0])
        if body[0].tid != tid:
            members.append(body)
    if extension is not None:
        ext_fragments, ext_bytes = row.cost
        batch["fragments"] += ext_fragments
        batch["size"] += ext_bytes
    batch["entries"][tid] = {
        "tid": tid,
        "status": "data",
        "transaction": held["transaction"],
        "antecedents": held["antecedents"],
        "order": held["order"],
        "priority": priority,
        "extension": extension,
        "members": members,
        "digest": digest,
    }


def _flush_batch(host, network: Network, token: Token) -> None:
    """Ship the coalesced replies: one tiny ``nc_unchanged`` token
    message for the provably-unchanged roots, and one sized
    ``nc_data`` carrying everything else this controller owes the
    participant this round."""
    batch = host.nc_batches.pop(token)
    client, req = token
    if batch["unchanged"]:
        network.send(
            host.name,
            client,
            "nc_unchanged",
            **wire.price("nc_unchanged", len(batch["unchanged"])),
            req=req,
            entries=[
                {"tid": tid, "status": "unchanged", "digest": batch["unchanged"][tid]}
                for tid in sorted(batch["unchanged"])
            ],
        )
    if batch["entries"]:
        entries = [batch["entries"][tid] for tid in sorted(batch["entries"])]
        # Terminal non-data entries (irrelevant/unknown/failed) ride
        # as tiny per-root markers in the shared header's message.
        size = batch["size"] + sum(
            wire.TID_WIRE_BYTES for entry in entries if entry["status"] != "data"
        )
        network.send(
            host.name,
            client,
            "nc_data",
            fragments=max(1, batch["fragments"]),
            size_bytes=size,
            req=req,
            entries=entries,
        )
