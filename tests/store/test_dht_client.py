"""The DHT request engine against a scripted network.

``repro.store.dht.client`` is the one place the driver sends, waits,
retries and gives up; it reaches the network through ``store.network``
at call time, so a test swaps in a fake that answers from a script —
here one that loses answers — and watches the loop alone.
"""

from __future__ import annotations

import pytest

from repro.confed import HookBus
from repro.errors import RetryExhaustedError
from repro.net.simnet import Message
from repro.store import DhtUpdateStore
from repro.store.dht import client, wire


class ScriptedNetwork:
    """Stands in for ``store.network``: records what is sent, and on
    ``run()`` puts in the client's inbox whatever ``script(message)``
    answers — a list of ``(kind, payload)``."""

    def __init__(self, node, script):
        self.node = node
        self.script = script
        self.queue = []
        self.sent = []
        self.messages_delivered = 0
        self.simulated_seconds = 0.0

    def send(self, sender, recipient, kind, fragments=1, size_bytes=0, **payload):
        self.queue.append(
            Message(sender, recipient, kind, payload, fragments, size_bytes)
        )

    def run(self):
        queue, self.queue = self.queue, []
        for message in queue:
            self.sent.append(message)
            self.messages_delivered += 1
            for kind, payload in self.script(message):
                self.node.handle(
                    self, Message(message.recipient, self.node.name, kind, payload)
                )


def scripted_store(schema, script, max_retries=3):
    """A real store whose network is the fake; returns it with the
    client node and the ``retry`` events it emits."""
    store = DhtUpdateStore(schema, hosts=3, max_retries=max_retries)
    node = client._ClientNode("client:1")
    store.network = ScriptedNetwork(node, script)
    store.hooks = HookBus()
    retries = []
    store.hooks.on_retry(lambda **event: retries.append(event))
    return store, node, retries


def losing_the_first(k, answer):
    """A script that answers every message with ``answer(message)``,
    except that the first ``k`` messages get nothing."""
    seen = []

    def script(message):
        seen.append(message)
        return [] if len(seen) <= k else answer(message)

    return script


def echo(kind):
    return lambda message: [(kind, {"req": message.payload["req"], "epoch": 7})]


@pytest.mark.parametrize("k", [0, 1, 3])
def test_a_request_retries_until_its_reply_arrives(schema, k):
    store, node, retries = scripted_store(
        schema, losing_the_first(k, echo("current_epoch"))
    )
    before = store.perf.simulated_seconds
    reply = client.request(store, node, wire.ALLOCATOR_KEY, "get_current_epoch")
    assert reply["epoch"] == 7
    # k answers lost: k retries, numbered 1..k, each charged its backoff.
    owner = store._owner(wire.ALLOCATOR_KEY)
    assert retries == [
        {"kind": "get_current_epoch", "recipient": owner, "attempt": attempt}
        for attempt in range(1, k + 1)
    ]
    assert store.retries == k
    backoff = sum(store.message_latency * 2**attempt for attempt in range(1, k + 1))
    assert store.perf.simulated_seconds - before == pytest.approx(backoff)
    # One request id across every attempt, and nothing left in the inbox.
    sent = store.network.sent
    assert len(sent) == k + 1 and len({m.payload["req"] for m in sent}) == 1
    assert store.perf.messages == k + 1
    assert node.inbox == []


def test_a_retry_is_routed_to_the_takeover_owner(schema):
    store, node, retries = scripted_store(schema, lambda message: [])
    primary = store._owner(wire.ALLOCATOR_KEY)

    def script(message):
        if message.recipient == primary:
            store._ring.failed.add(primary)  # it crashed with the request
            return []
        return echo("current_epoch")(message)

    store.network.script = script
    client.request(store, node, wire.ALLOCATOR_KEY, "get_current_epoch")
    takeover = store._owner(wire.ALLOCATOR_KEY)
    assert takeover != primary
    assert [m.recipient for m in store.network.sent] == [primary, takeover]
    assert [event["recipient"] for event in retries] == [takeover]


def test_a_spent_budget_names_what_is_pending(schema):
    store, node, retries = scripted_store(schema, lambda message: [], max_retries=2)
    with pytest.raises(RetryExhaustedError) as excinfo:
        client.request(store, node, None, "poll_max_epoch", recipient="host:1")
    assert len(store.network.sent) == 3 and len(retries) == 2
    text = str(excinfo.value)
    for part in ("'poll_max_epoch'", "'max_epoch'", "host:1", "3 attempts",
                 f"request id {store._req_counter}", "client:1"):
        assert part in text


def test_an_answer_outside_the_requests_row_is_ignored(schema):
    # The right request id under a kind the table does not pair with
    # the request is not its reply (nor is the right kind under another
    # request's id).
    store, node, _retries = scripted_store(
        schema,
        lambda message: [
            ("max_epoch", {"req": message.payload["req"], "epoch": 1}),
            ("current_epoch", {"req": message.payload["req"] + 1, "epoch": 2}),
        ],
        max_retries=1,
    )
    with pytest.raises(RetryExhaustedError, match="current_epoch.*max_epoch"):
        client.request(store, node, wire.ALLOCATOR_KEY, "get_current_epoch")
    assert node.inbox == []


def test_a_batch_request_stays_open_until_its_replies_settle_every_item(schema):
    # ``absorb`` returns what each reply settled: two replies under one
    # id settle a subset, the rest is regrouped to its current owner,
    # and a duplicate reply to a settled request never reaches absorb.
    store, node, retries = scripted_store(schema, lambda message: [])
    groups = store._ring.by_owner([f"key:{i}" for i in range(40)], lambda key: key)
    primary, (a, b, *_rest) = next(
        (owner, keys) for owner, keys in sorted(groups.items()) if len(keys) >= 2
    )

    def script(message):
        req = message.payload["req"]
        if message.recipient == primary:
            store._ring.failed.add(primary)  # it crashes after answering a
            return [
                ("nc_data", {"req": req, "settles": [a]}),
                ("nc_unchanged", {"req": req, "settles": []}),
            ]
        reply = ("nc_data", {"req": req, "settles": message.payload["items"]})
        return [reply, reply]

    store.network.script = script
    absorbed = []

    def absorb(mine, payload):
        absorbed.append((list(mine), payload["settles"]))
        return payload["settles"]

    client.batched(
        store, node, "nc_request", [a, b], lambda key: key, lambda mine: dict(items=mine), absorb
    )
    takeover = store._owner(b)
    assert takeover != primary
    assert [(m.recipient, m.payload["items"]) for m in store.network.sent] == [
        (primary, [a, b]), (takeover, [b]),
    ]
    assert absorbed == [([a, b], [a]), ([a, b], []), ([b], [b])]
    assert retries == [{"kind": "nc_request", "recipient": None, "attempt": 1}]
    assert node.inbox == []


def test_a_cascade_resends_only_what_is_unanswered_under_a_fresh_token(schema):
    lost = {"b"}  # b's first answer is lost, a and c answer at once

    def script(message):
        tid = message.payload["tid"]
        if tid in lost:
            lost.discard(tid)
            return []
        return [("txn_data", {"tid": tid}), ("nc_adjacency", {"tid": "noise"})]

    store, node, retries = scripted_store(schema, script)
    unanswered = ["a", "b", "c"]
    absorbed = []

    def pending(token):
        return [
            (f"host:{index}", [tid], dict(tid=tid, token=token))
            for index, tid in enumerate(unanswered)
        ]

    def absorb(message):
        absorbed.append((message.kind, message.payload["tid"]))
        unanswered.remove(message.payload["tid"])

    client.exchange(store, node, "request_txn", pending, absorb)
    sent = [(m.payload["tid"], m.payload["token"]) for m in store.network.sent]
    assert [tid for tid, _token in sent] == ["a", "b", "c", "b"]
    first, second = sent[0][1], sent[3][1]
    assert {token for _tid, token in sent[:3]} == {first} and second != first
    # Only kinds of the request's row reach the caller.
    assert absorbed == [("txn_data", "a"), ("txn_data", "c"), ("txn_data", "b")]
    # A cascade has no single recipient to name in its retry event.
    assert retries == [{"kind": "request_txn", "recipient": None, "attempt": 1}]


def test_a_cascade_that_gives_up_names_the_missing_ids(schema):
    store, node, _retries = scripted_store(schema, lambda message: [], max_retries=0)
    with pytest.raises(RetryExhaustedError) as excinfo:
        client.exchange(
            store,
            node,
            "record_decision",
            lambda _token: [("host:0", ["1:4", "2:0"], {}), ("host:2", ["3:1"], {})],
            lambda message: None,
        )
    text = str(excinfo.value)
    assert "'record_decision'" in text and "'decision_recorded'" in text
    assert "{'host:0': ['1:4', '2:0'], 'host:2': ['3:1']}" in text
