"""The update-store registry: backends selected by name.

A backend joins the confederation API by registering a name and a
factory ``factory(schema, **options) -> UpdateStore``; nothing else is
declared.  The engine routes on what each batch carries — shipped
extensions, the shared conflict graph — never on the store's type.

The built-in backends (``memory``, ``central``, ``durable``, ``dht``)
are registered by :mod:`repro.store` at import time; see
``register_store`` for adding more.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.model.schema import Schema
    from repro.store.base import UpdateStore


#: Factory signature every backend provides.
StoreFactory = Callable[..., "UpdateStore"]

_REGISTRY: Dict[str, StoreFactory] = {}


def register_store(name: str, factory: StoreFactory, replace: bool = False) -> None:
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
    _REGISTRY[name] = factory


def unregister_store(name: str) -> None:
    """Remove a registered backend (primarily for tests)."""
    _REGISTRY.pop(name, None)


def create_store(name: str, schema: "Schema", **options) -> "UpdateStore":
    """Instantiate the backend registered under ``name``.

    An unknown name, or an option the factory does not take, raises
    :class:`~repro.errors.ConfigError` naming what is accepted — a typo
    in ``store_options`` is a configuration error like any other.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown store backend {name!r}; "
            f"available: {', '.join(available_stores()) or '(none)'}"
        ) from None
    signature = inspect.signature(factory)
    try:
        signature.bind(schema, **options)
    except TypeError as error:
        accepted = [
            parameter.name
            for parameter in list(signature.parameters.values())[1:]
            if parameter.kind not in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD)
        ]
        raise ConfigError(
            f"store backend {name!r} rejects its options ({error}); "
            f"it accepts: {', '.join(accepted) or '(none)'}"
        ) from None
    return factory(schema, **options)


def available_stores() -> List[str]:
    """Names of every registered backend, sorted."""
    return sorted(_REGISTRY)
