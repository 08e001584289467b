"""The ``durable`` registry name: the sqlite store as an embedded database.

Persistence, recovery, paging and spill all live in
:mod:`repro.store.central`; this name differs only in the default cost
model — no simulated JDBC call overhead.
"""

from __future__ import annotations

# The spill codec is re-exported: tests/store/test_durable.py pins its
# round trip under this module path.
from repro.store.central import (  # noqa: F401
    CentralUpdateStore,
    _decode_extension,
    _encode_extension,
)


class DurableUpdateStore(CentralUpdateStore):
    """The sqlite store without the simulated JDBC call overhead."""

    DEFAULT_CALL_OVERHEAD = 0.0
