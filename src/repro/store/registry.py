"""The update-store driver registry: backends selected by name.

New backends join the confederation API by registering a *driver*: a
name, a factory ``factory(schema, **options) -> UpdateStore``, and an
honest :class:`StoreCapabilities` record.  The engine and the
:class:`~repro.confed.Confederation` facade consult capabilities — never
``isinstance`` checks against store classes — to decide what a backend
can do:

* ``ships_context_free`` — the store derives context-free update
  extensions once per published transaction and ships them with every
  reconciliation batch (see :mod:`repro.store.network_centric`); the
  engine only adopts shipped extensions from stores that declare this;
* ``shared_pair_memo`` — the store keeps one confederation-wide graph
  of pairwise conflict points, hung on the extension objects it ships;
* ``durable`` — published state survives process restarts (backed by
  disk rather than process memory);
* ``network_centric_batches`` — the store implements
  ``begin_network_reconciliation`` (Figure 3's store-computed mode):
  it tracks every participant's applied set, derives each
  participant's update extensions *against that applied set*, computes
  the pairwise conflict adjacency store-side, and hands the engine a
  fully-assembled batch.  Every built-in declares it —
  memory/central/durable through direct log access
  (:class:`~repro.store.network_centric.DirectLogStore`), the DHT
  through its ring protocol (:mod:`repro.store.dht`).

The built-in backends (``memory``, ``central``, ``durable``, ``dht``)
are registered
by :mod:`repro.store` at import time; see ``register_store`` for adding
more.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.model.schema import Schema
    from repro.store.base import UpdateStore


@dataclass(frozen=True)
class StoreCapabilities:
    """What an update-store backend declares it can do.

    Flags are *honest* advertisements consumed by the engine and the
    confederation facade; a backend must not declare a capability its
    implementation does not provide, and the conservative default is
    "nothing beyond the base contract".
    """

    ships_context_free: bool = False
    shared_pair_memo: bool = False
    durable: bool = False
    network_centric_batches: bool = False

    def as_dict(self) -> Dict[str, bool]:
        """The flags as a plain dict (for reports and snapshots)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Factory signature every driver provides.
StoreFactory = Callable[..., "UpdateStore"]


@dataclass(frozen=True)
class StoreDriver:
    """One registered backend: name, factory, and capabilities."""

    name: str
    factory: StoreFactory = field(repr=False)
    capabilities: StoreCapabilities


_REGISTRY: Dict[str, StoreDriver] = {}


def register_store(
    name: str,
    factory: StoreFactory,
    capabilities: StoreCapabilities,
    replace: bool = False,
) -> StoreDriver:
    """Register a store backend under ``name``.

    ``factory(schema, **options)`` must return an
    :class:`~repro.store.base.UpdateStore`.  Registering an
    already-taken name raises :class:`~repro.errors.ConfigError` unless
    ``replace=True`` (meant for tests and experimental overrides).
    """
    if not name or not isinstance(name, str):
        raise ConfigError(f"store driver name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not replace:
        raise ConfigError(
            f"store driver {name!r} is already registered; "
            f"pass replace=True to override it"
        )
    driver = StoreDriver(name=name, factory=factory, capabilities=capabilities)
    _REGISTRY[name] = driver
    return driver


def unregister_store(name: str) -> None:
    """Remove a registered backend (primarily for tests)."""
    _REGISTRY.pop(name, None)


def store_driver(name: str) -> StoreDriver:
    """Look up a driver by name; unknown names raise ConfigError."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown store backend {name!r}; "
            f"available: {', '.join(available_stores()) or '(none)'}"
        ) from None


def create_store(name: str, schema: "Schema", **options) -> "UpdateStore":
    """Instantiate the backend registered under ``name``."""
    return store_driver(name).factory(schema, **options)


def available_stores() -> List[str]:
    """Names of every registered backend, sorted."""
    return sorted(_REGISTRY)


def store_capabilities(name: str) -> StoreCapabilities:
    """The capability flags a backend declared at registration."""
    return store_driver(name).capabilities
