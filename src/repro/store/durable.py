"""The ``durable`` registry name: the sqlite store as an embedded database.

Persistence, recovery and paging all live in
:mod:`repro.store.central`; this name differs only in the default cost
model — no simulated JDBC call overhead.
"""

from __future__ import annotations

from repro.store.central import CentralUpdateStore


class DurableUpdateStore(CentralUpdateStore):
    """The sqlite store without the simulated JDBC call overhead."""

    DEFAULT_CALL_OVERHEAD = 0.0
