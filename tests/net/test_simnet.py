"""Tests for the simulated network and the consistent-hashing ring."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import NetworkError
from repro.net import HashRing, Message, Network, Node
from repro.net.faults import FaultInjector, FaultPlan, MessageFault


class EchoNode(Node):
    """Replies to every 'ping' with a 'pong'."""

    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def handle(self, network, message):
        self.received.append(message)
        if message.kind == "ping":
            network.send(self.name, message.sender, "pong")


class TestNetwork:
    def test_round_trip_counts_two_messages(self):
        net = Network(latency=0.001)
        a, b = EchoNode("a"), EchoNode("b")
        net.add_node(a)
        net.add_node(b)
        net.send("a", "b", "ping")
        delivered = net.run()
        assert delivered == 2
        assert net.messages_delivered == 2
        assert net.simulated_seconds == pytest.approx(0.002)
        assert [m.kind for m in a.received] == ["pong"]

    def test_bytes_accounted_per_message(self):
        from repro.net.simnet import DEFAULT_FRAGMENT_BYTES

        net = Network(latency=0.001)
        a, b = EchoNode("a"), EchoNode("b")
        net.add_node(a)
        net.add_node(b)
        # Explicit size wins; unspecified sizes default per fragment —
        # the echo reply is 1 fragment, the 3-fragment probe is charged
        # at three defaults.
        net.send("a", "b", "ping", size_bytes=1000)
        net.run()
        net.send("a", "b", "probe", fragments=3)
        net.run()
        assert net.bytes_delivered == (
            1000
            + DEFAULT_FRAGMENT_BYTES  # pong reply to the ping
            + 3 * DEFAULT_FRAGMENT_BYTES  # unanswered probe
        )
        # Per-kind byte accounting mirrors the totals, split by kind.
        assert net.kind_bytes == {
            "ping": 1000,
            "pong": DEFAULT_FRAGMENT_BYTES,
            "probe": 3 * DEFAULT_FRAGMENT_BYTES,
        }
        assert sum(net.kind_bytes.values()) == net.bytes_delivered

    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_node(EchoNode("a"))
        with pytest.raises(NetworkError):
            net.add_node(EchoNode("a"))

    def test_unknown_recipient_raises(self):
        net = Network()
        net.add_node(EchoNode("a"))
        net.send("a", "nobody", "ping")
        with pytest.raises(NetworkError):
            net.run()

    def test_failed_node_raises_by_default(self):
        net = Network()
        net.add_node(EchoNode("a"))
        net.add_node(EchoNode("b"))
        net.fail_node("b")
        net.send("a", "b", "ping")
        with pytest.raises(NetworkError):
            net.run()

    def test_a_message_to_a_failed_node_is_refused_before_accounting(self):
        # The refusal happens before delivery: the failed node never
        # sees the message and no counter moves.
        net = Network(latency=0.001)
        a, b = EchoNode("a"), EchoNode("b")
        net.add_node(a)
        net.add_node(b)
        net.fail_node("b")
        net.send("a", "b", "ping", fragments=3, size_bytes=999)
        with pytest.raises(NetworkError, match="failed node"):
            net.run()
        assert b.received == []
        assert net.messages_delivered == 0
        assert net.bytes_delivered == 0
        assert net.simulated_seconds == 0.0
        assert net.kind_counts == {}

    def test_dropped_messages_are_not_accounted(self):
        # A message the injector drops must leave every counter
        # untouched: the clock, the message counter, the byte total, and
        # the kind counts only reflect deliveries that happened.
        net = Network(latency=0.001)
        net.injector = FaultInjector(
            FaultPlan(messages=(MessageFault("ping", "drop", times=1),)),
            latency=0.001,
        )
        a, b = EchoNode("a"), EchoNode("b")
        net.add_node(a)
        net.add_node(b)
        net.send("a", "b", "ping", fragments=3, size_bytes=999)
        assert net.run() == 1  # attempted, not delivered
        assert b.received == []
        assert net.messages_delivered == 0
        assert net.bytes_delivered == 0
        assert net.simulated_seconds == 0.0
        assert net.kind_counts == {}
        assert net.kind_bytes == {}
        # With the fault spent, accounting resumes as normal.
        net.send("a", "b", "ping")
        net.run()
        assert net.messages_delivered == 2  # ping + pong
        assert net.simulated_seconds == pytest.approx(0.002)
        assert net.kind_counts == {"ping": 1, "pong": 1}

    def test_recovery(self):
        net = Network()
        a, b = EchoNode("a"), EchoNode("b")
        net.add_node(a)
        net.add_node(b)
        net.fail_node("b")
        assert net.is_failed("b")
        net.recover_node("b")
        net.send("a", "b", "ping")
        net.run()
        assert len(b.received) == 1

    def test_message_budget_guards_loops(self):
        class LoopNode(Node):
            def handle(self, network, message):
                network.send(self.name, self.name, "loop")

        net = Network()
        net.add_node(LoopNode("l"))
        net.send("l", "l", "loop")
        with pytest.raises(NetworkError):
            net.run(max_messages=100)

    def test_message_str(self):
        assert str(Message("a", "b", "ping")) == "a -> b: ping"


class TestHashRing:
    def test_deterministic_ownership(self):
        ring = HashRing(["n0", "n1", "n2"])
        assert ring.owner("some-key") == ring.owner("some-key")
        assert ring.owner("some-key") in {"n0", "n1", "n2"}

    def test_spread_over_nodes(self):
        ring = HashRing([f"n{i}" for i in range(8)])
        owners = {ring.owner(f"key-{i}") for i in range(200)}
        assert len(owners) >= 4  # hashing spreads keys around

    def test_single_node_owns_everything(self):
        ring = HashRing(["solo"])
        assert ring.owner("anything") == "solo"

    def test_empty_ring_rejected(self):
        with pytest.raises(NetworkError):
            HashRing([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(NetworkError):
            HashRing(["a", "a"])

    def test_owner_excluding_failed(self):
        ring = HashRing(["n0", "n1", "n2"])
        primary = ring.owner("key")
        fallback = ring.owner_excluding("key", {primary})
        assert fallback != primary
        assert fallback in {"n0", "n1", "n2"}

    def test_owner_excluding_all_raises(self):
        ring = HashRing(["n0"])
        with pytest.raises(NetworkError):
            ring.owner_excluding("key", {"n0"})

    def test_ownership_is_a_pure_function_of_key_and_membership(self):
        """Positions and live views are memoized (a key's SHA-1 and the
        live ring per excluded set are computed once); what they answer
        is still the definition — first live node clockwise — whatever
        was asked before, and a caller's set is never aliased."""
        names = [f"host:{i}" for i in range(8)]
        ring = HashRing(names)

        def position(value):
            return int.from_bytes(hashlib.sha1(value.encode()).digest()[:8], "big")

        def clockwise(key, excluded):
            live = sorted((position(n), n) for n in names if n not in excluded)
            after = [n for p, n in live if p >= position(key)]
            return (after + [n for _p, n in live])[: len(live)]

        failed = set()
        for crashed in (None, "host:2", "host:5", None, "host:2"):
            # The caller mutates one set in place, as the DHT's ring
            # view does at a crash and at a recovery.
            failed.clear() if crashed is None else failed.add(crashed)
            for _again in range(2):
                for i in range(64):
                    key = f"txn:{i % 7}:{i}"
                    expected = clockwise(key, failed)
                    assert ring.owner_excluding(key, failed) == expected[0]
                    assert ring.successors(key, 3, excluded=failed) == expected[:3]
                    assert ring.owner(key) == clockwise(key, ())[0]

    def test_nodes_in_ring_order(self):
        ring = HashRing(["n0", "n1", "n2"])
        assert set(ring.nodes()) == {"n0", "n1", "n2"}
        assert len(ring) == 3

    def test_successors_start_at_owner_and_are_distinct(self):
        ring = HashRing([f"n{i}" for i in range(5)])
        succ = ring.successors("key", 3)
        assert succ[0] == ring.owner("key")
        assert len(succ) == len(set(succ)) == 3

    def test_successors_clamped_to_live_ring(self):
        ring = HashRing(["n0", "n1", "n2"])
        assert len(ring.successors("key", 10)) == 3
        succ = ring.successors("key", 2, excluded={ring.owner("key")})
        assert ring.owner("key") not in succ
        assert succ[0] == ring.owner_excluding("key", {ring.owner("key")})

    def test_successors_all_excluded_raises(self):
        ring = HashRing(["n0"])
        with pytest.raises(NetworkError):
            ring.successors("key", 1, excluded={"n0"})
