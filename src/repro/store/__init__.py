"""Update stores: the publication and retrieval substrate (Section 5.2).

The update store logs published transactions with their epochs, computes
antecedent edges at publish time, applies trust predicates, assembles
reconciliation batches, and records each participant's decisions so no
transaction is delivered twice.

Three implementations share the :class:`repro.store.base.UpdateStore`
interface and are registered under four names in the **store
registry** (:mod:`repro.store.registry`) so backends are selected by
name.  Two of them read their own log and
derive from :class:`repro.store.network_centric.DirectLogStore`, which
holds the shared context-free/pair memos and the store-computed batch:

* ``memory`` — :class:`repro.store.memory.MemoryUpdateStore` — plain
  in-process state; fastest, used by the state-ratio simulations; ships
  context-free extensions and the shared pair memo;
* ``central`` — :class:`repro.store.central.CentralUpdateStore` — the
  paper's central relational store (Section 5.2.1), here on sqlite3
  (``:memory:`` by default, or a database file), with the epoch
  begin/finish protocol and stable-epoch computation, WAL mode, crash
  recovery and adopt-on-reopen, transaction bodies paged through a
  bounded LRU so resident memory is O(open frontier), and only facts on
  disk (retired shared-memo entries are dropped, as on ``memory``);
  charges the simulated per-call JDBC overhead of a remote RDBMS;
* ``durable`` — :class:`repro.store.durable.DurableUpdateStore` — the
  same sqlite store as an embedded database: no call overhead, and by
  convention given a real ``path`` (PR 9's persistent quadrant);
* ``dht`` — :class:`repro.store.dht.DhtUpdateStore` — the paper's
  distributed store (Section 5.2.2), simulated over a Pastry-style ring
  with per-message latency and byte accounting (Figures 6-7); since
  PR 3 its transaction controllers derive context-free extensions at
  publish time and ship them on fetch, with a confederation-wide pair
  memo (``ship_context_free=False`` restores the paper's
  client-compute-only behaviour); it also serves *fully*
  network-centric batches: controllers derive each participant's
  extensions against that participant's applied set over the ring,
  closing the last quadrant of Figure 3.

New backends call :func:`repro.store.registry.register_store` and become
selectable from a :class:`repro.confed.ConfederationConfig` without any
engine changes.
"""

from repro.store.base import PerfCounters, UpdateStore
from repro.store.central import CentralUpdateStore
from repro.store.dht import DhtUpdateStore
from repro.store.durable import DurableUpdateStore
from repro.store.memory import MemoryUpdateStore
from repro.store.registry import (
    available_stores,
    create_store,
    register_store,
    unregister_store,
)

# A store class is already a ``factory(schema, **options)``: one
# registry row per name.
for _name, _store_class in (
    ("memory", MemoryUpdateStore),
    ("central", CentralUpdateStore),
    ("dht", DhtUpdateStore),
    ("durable", DurableUpdateStore),
):
    register_store(_name, _store_class)

__all__ = [
    "CentralUpdateStore",
    "DhtUpdateStore",
    "DurableUpdateStore",
    "MemoryUpdateStore",
    "PerfCounters",
    "UpdateStore",
    "available_stores",
    "create_store",
    "register_store",
    "unregister_store",
]
