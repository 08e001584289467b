"""The DHT store's protocol tables agree with each other, and the
driver reaches the network only through the request engine.

``KINDS`` (the registry RPR009 checks literals against), ``HANDLERS``
(kind -> host handler) and ``REPLIES`` (request -> the kinds that answer
it) are three literal tables; together they must account for every kind
exactly once.
"""

from __future__ import annotations

import ast
import inspect

import pytest

from repro.errors import StoreError
from repro.store import DhtUpdateStore
from repro.store.dht import driver
from repro.store.dht.host import HANDLERS
from repro.store.dht.wire import KINDS, REPLIES

#: What a client's inbox may hold: every kind that answers a request,
#: plus the one no request solicits (the peer coordinator's adjacency).
CLIENT_CONSUMED = {kind for row in REPLIES.values() for kind in row} | {
    "nc_adjacency"
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kind_has_exactly_one_row(kind):
    """A host handles it, it answers a request, or it is the one
    unsolicited client-bound kind: a kind added without a row fails here
    by name."""
    rows = [kind in HANDLERS, kind in CLIENT_CONSUMED - {"nc_adjacency"}]
    rows.append(kind == "nc_adjacency")
    assert rows.count(True) == 1, rows


def test_every_kind_is_dispatched_replied_or_client_consumed():
    # Every kind has a row (per kind, above), and the tables name no
    # undeclared kind ...
    assert set(HANDLERS) | CLIENT_CONSUMED <= KINDS
    # ... exactly once: hosts never handle what only clients receive,
    # and no kind answers two requests.
    assert not set(HANDLERS) & CLIENT_CONSUMED
    assert sum(len(row) for row in REPLIES.values()) + 1 == len(CLIENT_CONSUMED)


def test_every_request_has_a_handler():
    assert set(REPLIES) <= set(HANDLERS)


def test_unknown_kind_still_raises(schema):
    store = DhtUpdateStore(schema, hosts=2)
    store.network.send("host:0", "host:1", "no_such_kind")
    with pytest.raises(StoreError, match="no_such_kind"):
        store.network.run()


def test_the_driver_touches_the_network_only_through_the_engine():
    """``driver.py`` is protocol scripts: sending, delivering and reading
    an inbox happen in ``client.py``.  Topology calls (``add_node``,
    ``fail_node``, ``recover_node``) stay."""
    offenders = []
    for node in ast.walk(ast.parse(inspect.getsource(driver))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        callee, on = node.func.attr, node.func.value
        on_network = isinstance(on, ast.Attribute) and on.attr == "network"
        if callee == "drain" or (on_network and callee in ("send", "post", "run")):
            offenders.append(f"line {node.lineno}: .{callee}(")
    assert not offenders, offenders
