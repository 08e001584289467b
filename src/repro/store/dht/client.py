"""The request engine: the one place the DHT driver sends, waits,
retries and gives up.

Plain functions over the store, the shape the ``(host, network,
message)`` handlers have: :func:`exchange` is the only retry loop and
:func:`run` the only reader of an inbox; :func:`request` (one round
trip), :func:`batched` (one request per owner of a batch's items) and
the driver's ``request_txn`` cascade go through them, :func:`tell`
carries the two kinds nothing answers.  ``store.network`` is looked up
per call, so whatever wraps its ``run`` on the live object sees every
delivery.

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
* **degradation** — a retry goes out under a fresh token
  (``request_txn``) or request id (``nc_request``), which the
  controllers deduplicate by, so a re-request is never silently
  absorbed; a store-computed derivation that still fails falls back
  to the client-computed path for that root (surfaced as a
  ``degraded`` hook event), preserving byte-identical decisions.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import RetryExhaustedError
from repro.net.simnet import Message, Network, Node
from repro.store.dht import wire

#: One pending send of an exchange: the recipient, what it is owed an
#: answer for (a request id, transaction ids — named when the exchange
#: gives up), and the keywords of ``Network.send`` (payload fields plus
#: ``fragments`` / ``size_bytes``).
Send = Tuple[str, Sequence[Any], Dict[str, Any]]


class _ClientNode(Node):
    """The reconciling/publishing peer's endpoint: an inbox."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.inbox: List[Message] = []

    def handle(self, network: Network, message: Message) -> None:
        """Collect replies for the request engine to consume."""
        self.inbox.append(message)

    def drain(self) -> List[Message]:
        """Return and clear the inbox."""
        messages, self.inbox = self.inbox, []
        return messages


def run(store, client: Optional[_ClientNode] = None) -> List[Message]:
    """Deliver everything in flight, mirror the network's counters into
    ``perf``, and hand over (emptying it) what reached ``client``."""
    network = store.network
    before_msgs = network.messages_delivered
    before_secs = network.simulated_seconds
    network.run()
    store.perf.charge(network.messages_delivered - before_msgs, 0.0)
    store.perf.simulated_seconds += network.simulated_seconds - before_secs
    return client.drain() if client is not None else []


def note_retry(store, kind: str, recipient: Optional[str], attempt: int) -> None:
    """Charge a retry's timeout backoff and surface it as an event."""
    store.perf.simulated_seconds += store._message_latency * (2 ** attempt)
    store.retries += 1
    store._emit("retry", kind=kind, recipient=recipient, attempt=attempt)


def exchange(
    store,
    client: _ClientNode,
    kind: str,
    pending: Callable[[str], List[Send]],
    absorb: Callable[[Message], None],
    addressed: bool = False,
) -> None:
    """Send ``kind`` until everything it asks is answered, or give up.

    Each attempt asks ``pending(token)`` for the sends still owed an
    answer — none ends the exchange — sends them, drains the network,
    and hands ``absorb`` every inbox message of a kind the protocol
    table pairs with ``kind`` (:data:`~repro.store.dht.wire.REPLIES`);
    anything else that arrived is dropped with the rest of the inbox.
    ``token`` is fresh per attempt (the controllers deduplicate cascaded
    requests per token, so a re-request under the old one would be
    silently absorbed), and ``pending`` routes afresh each time, so a
    retry lands on the takeover owner.  A retry charges exponential
    backoff to the perf clock as its timeout cost and emits ``retry``
    (naming the recipient only when the exchange is ``addressed`` to
    one).  What is still pending after ``max_retries`` retries raises
    :class:`~repro.errors.RetryExhaustedError`, naming the request and
    answer kinds and what each recipient still owes.
    """
    answers = wire.REPLIES[kind]
    inbox: List[Message] = []
    for attempt in itertools.count():
        store._token_counter += 1
        sends = pending(f"{kind}:{client.name}:{store._token_counter}")
        if not sends:
            return
        if attempt > store._max_retries:
            owed: Dict[str, List[str]] = {}
            for recipient, awaited, _fields in sends:
                owed.setdefault(recipient, []).extend(map(str, awaited))
            raise RetryExhaustedError(
                f"no {' / '.join(map(repr, answers))} answer to {kind!r} "
                f"after {attempt} attempts: {client.name} is still owed "
                f"{owed} (the last attempt's inbox held "
                f"{sorted({message.kind for message in inbox})})"
            )
        if attempt:
            note_retry(store, kind, sends[0][0] if addressed else None, attempt)
        for recipient, _awaited, fields in sends:
            store.network.send(client.name, recipient, kind, **fields)
        inbox = run(store, client)
        for message in inbox:
            if message.kind in answers:
                absorb(message)


def request(
    store,
    client: _ClientNode,
    key: Optional[str],
    kind: str,
    *,
    recipient: Optional[str] = None,
    **fields: Any,
) -> Dict[str, Any]:
    """One request/reply exchange; returns the reply's payload.

    The request id is stable across attempts (handlers are idempotent,
    and the epoch allocator deduplicates by it) and the reply must echo
    it; addressed by ring ``key``, the owner is re-resolved per attempt,
    else ``recipient`` is written to directly.  ``fields`` is the
    payload plus the ``fragments`` / ``size_bytes`` sizing.
    """
    store._req_counter += 1
    fields["req"] = req = store._req_counter
    replies: List[Dict[str, Any]] = []

    def pending(_token: str) -> List[Send]:
        """The request, to the key's owner as of now, until answered."""
        if replies:
            return []
        owner = store._owner(key) if key is not None else recipient
        return [(owner, [f"request id {req}"], fields)]

    def absorb(message: Message) -> None:
        """A reply is this request's when it echoes its id."""
        if message.payload.get("req") == req:
            replies.append(message.payload)

    exchange(store, client, kind, pending, absorb, addressed=True)
    return replies[0]


def batched(
    store,
    client: _ClientNode,
    kind: str,
    items: Iterable[Any],
    ring_key: Callable[[Any], str],
    fields: Callable[[List[Any]], Dict[str, Any]],
    absorb: Optional[Callable[[List[Any], Dict[str, Any]], Optional[Iterable[Any]]]] = None,
) -> None:
    """One ``kind`` request per live owner of ``items``' ring keys,
    listing its items, until every item is answered.

    ``fields(mine)`` is one request's payload and sizing; each reply
    echoes the request id — ``absorb(mine, payload)`` reads it and
    returns the items it settled, or ``None`` for all of them.  A
    request stays open, and its further replies reach ``absorb``, until
    every item of it is settled; a reply to a settled request is
    ignored.  What is still owed after an attempt is regrouped by its
    current owner (a retry lands on the takeover owner) and re-sent, so
    the handler must be idempotent.
    """
    owed = dict.fromkeys(items)
    asked: Dict[Any, List[Any]] = {}

    def pending(_token: str) -> List[Send]:
        """One request per current owner of what is still owed."""
        sends = []
        for owner, mine in sorted(store._ring.by_owner(owed, ring_key).items()):
            store._req_counter += 1
            asked[store._req_counter] = mine
            sends.append((owner, mine, dict(fields(mine), req=store._req_counter)))
        return sends

    def answered(message: Message) -> None:
        """A reply settles items of the open request whose id it echoes."""
        req = message.payload.get("req")
        mine = asked.get(req)
        if mine is not None:
            settled = absorb(mine, message.payload) if absorb is not None else None
            for item in mine if settled is None else settled:
                owed.pop(item, None)
            if owed.keys().isdisjoint(mine):
                del asked[req]

    exchange(store, client, kind, pending, answered)


def tell(
    store,
    sender: str,
    recipients: Iterable[str],
    kind: str,
    client: Optional[_ClientNode] = None,
    **fields: Any,
) -> None:
    """Unacknowledged traffic: ``kind`` from ``sender`` to each of
    ``recipients``, with nothing to await or retry because nothing
    answers it — a loss is invisible to the sender.  ``client`` is the
    recipient whose inbox the message lands in, when it is one."""
    for recipient in recipients:
        store.network.send(sender, recipient, kind, **fields)
    run(store, client)
