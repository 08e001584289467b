"""The DHT store's protocol tables agree with each other.

``KINDS`` (the registry RPR009 checks literals against), ``HANDLERS``
(kind -> host handler) and ``REPLIES`` (request -> reply kind) are three
literal tables; together they must account for every kind exactly once.
"""

from __future__ import annotations

import pytest

from repro.errors import StoreError
from repro.store import DhtUpdateStore
from repro.store.dht.host import HANDLERS
from repro.store.dht.wire import KINDS, REPLIES

#: Kinds no host handles and no ``_request`` awaits: the driver reads
#: them off a client's inbox itself (cascaded retrievals, the adjacency).
CLIENT_CONSUMED = {
    "txn_data",
    "txn_irrelevant",
    "txn_unknown",
    "nc_data",
    "nc_unchanged",
    "nc_adjacency",
}


def test_every_kind_is_dispatched_replied_or_client_consumed():
    replies = set(REPLIES.values())
    assert set(HANDLERS) | replies | CLIENT_CONSUMED == KINDS
    # ... exactly once: hosts never handle what only clients receive.
    assert not set(HANDLERS) & (replies | CLIENT_CONSUMED)
    assert not replies & CLIENT_CONSUMED
    assert len(replies) == len(REPLIES)


def test_every_request_has_a_handler():
    assert set(REPLIES) <= set(HANDLERS)


def test_unknown_kind_still_raises(schema):
    store = DhtUpdateStore(schema, hosts=2)
    store.network.send("host:0", "host:1", "no_such_kind")
    with pytest.raises(StoreError, match="no_such_kind"):
        store.network.run()
