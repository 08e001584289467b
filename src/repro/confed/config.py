"""Declarative confederation configuration.

:class:`ConfederationConfig` names everything a confederation needs in
one serialisable place: the store backend (a driver-registry name plus
options), the peers and their trust policies, the synthetic workload,
the engine knobs, and the evaluation schedule.  It round-trips through
plain dicts (``from_dict(to_dict(cfg)) == cfg``) and the dicts are
JSON-safe, so experiment configurations can live in files and version
control instead of scattered constructor calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, Mapping, Optional, Tuple, Union, get_args, get_origin, get_type_hints

from repro.errors import ConfigError, ReproError
from repro.net.faults import FaultPlan
from repro.workload.generator import WorkloadConfig

#: Accepted values of ``ConfederationConfig.network_centric``:
#: ``"client"`` (the paper's client-centric reconciliation) and
#: ``"store"`` (the store computes per-participant extensions and
#: conflict adjacency — ``begin_network_reconciliation``; ``dht`` only).
NETWORK_CENTRIC_MODES: Tuple[str, ...] = ("client", "store")

#: Epoch-scheduler modes :meth:`repro.confed.Confederation.run` can use
#: (see :mod:`repro.confed.scheduler`).
SCHEDULE_MODES: Tuple[str, ...] = ("serial", "async")


# ----------------------------------------------------------------------
# The codec: the records' dict form, read off their declared fields.


def _hints(cls: type) -> Dict[str, object]:
    """Field name -> declared type of the record class ``cls``."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _at(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _json_key(hint: object, key: object) -> object:
    """A JSON object key read back as ``hint``: only ``int`` keys differ."""
    return int(key) if hint is int and isinstance(key, str) and re.fullmatch(r"-?\d+", key) else key


def _plain(value: object) -> object:
    """``value`` as JSON-safe data: a record becomes a dict of its
    fields, a tuple a list, and mapping keys strings."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _plain(item) for key, item in value.items()}
    return value


def _arguments(cls: type, data: Mapping, path: str) -> Dict[str, object]:
    """A ``cls`` record's constructor arguments read from its plain dict
    at ``path``: unknown keys refused, nested values rebuilt."""
    hints = _hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(
            f"unknown {path or 'config'} keys {sorted(unknown)}; known: {sorted(hints)}"
        )
    return {name: _read(hints[name], value, _at(path, name)) for name, value in data.items()}


def _read(hint: object, value: object, path: str) -> object:
    """``value`` rebuilt as ``hint`` declares it: a record from a dict
    (its values checked before its constructor sees them), a tuple from
    a list, the string keys of ``Dict[int, ...]`` as ints.  What does
    not fit is left as it is, for :func:`_check` to refuse."""
    if get_origin(hint) is Union:  # Optional[X], the one union declared
        hint = get_args(hint)[0]
    origin, args = get_origin(hint), get_args(hint)
    if is_dataclass(hint) and isinstance(value, Mapping):
        arguments, hints = _arguments(hint, value, path), _hints(hint)
        for name, item in arguments.items():
            _check(hints[name], item, _at(path, name))
        try:
            return hint(**arguments)
        except (TypeError, ReproError) as exc:  # a field missing, or out of range
            raise ConfigError(f"{path} is malformed: {exc}") from None
    if origin is tuple and isinstance(value, (list, tuple)):
        return tuple(_read(args[0], item, f"{path}[{i}]") for i, item in enumerate(value))
    if origin is dict and isinstance(value, Mapping):
        return {
            _json_key(args[0], key): _read(args[1], item, f"{path}[{key!r}]")
            for key, item in value.items()
        }
    return value


def _check(hint: object, value: object, path: str) -> None:
    """Refuse ``value`` unless it is what ``hint`` declares, naming
    ``path``.  An ``int`` is not a ``bool`` here, but it is a ``float``
    (JSON writes ``1.0`` as ``1``)."""
    if get_origin(hint) is Union:
        if value is None:
            return
        hint = get_args(hint)[0]
    origin, args = get_origin(hint), get_args(hint)
    if origin is not None:
        fits = isinstance(value, Mapping if origin is dict else origin)
    elif hint is float:
        fits = type(value) in (int, float)
    else:
        fits = hint is object or type(value) is hint
    if not fits:
        name = hint.__name__ if isinstance(hint, type) else re.sub(r"\w+\.", "", str(hint))
        raise ConfigError(f"config field {path} must be {name}, got {value!r}")
    if is_dataclass(hint):
        for name, field_hint in _hints(hint).items():
            _check(field_hint, getattr(value, name), _at(path, name))
    for index, item in enumerate(value if origin is tuple else ()):
        _check(args[0], item, f"{path}[{index}]")
    for key, item in value.items() if origin is dict else ():
        _check(args[0], key, f"{path} key {key!r}")
        _check(args[1], item, f"{path}[{key!r}]")


@dataclass
class ConfederationConfig:
    """Everything needed to build and run one confederation.

    * ``store`` — a store name from
      :func:`repro.store.registry.available_stores`; ``store_options``
      are passed to its factory (e.g. ``path`` for the central store,
      ``hosts`` for the DHT; an option it does not take is a
      :class:`~repro.errors.ConfigError` at ``open()``);
    * ``peers`` — participant ids, in registration order;
    * ``trust`` — explicit priorities per peer
      (``{pid: {other_pid: priority}}``); ``None`` means the evaluation
      section's setting: every peer trusts every other at priority 1,
      so conflicts can only be resolved manually;
    * ``network_centric`` — Figure 3's reconciliation column:
      ``"client"`` (the default) computes extensions and conflicts
      at each participant; ``"store"`` asks the store for
      fully-assembled batches (``begin_network_reconciliation``, which
      only ``dht`` implements: ``open()`` refuses it on any other store);
    * ``workload`` plus ``reconciliation_interval`` / ``rounds`` /
      ``final_reconcile`` — the evaluation schedule
      :meth:`repro.confed.Confederation.run` executes;
    * ``schedule_mode`` — how the one round plan groups the
      participants: ``"serial"`` (one at a time, the paper's strict
      round-robin) or ``"async"`` (everyone in one group: an edit and
      publish barrier, then a reconcile pass, on the caller's thread;
      each participant waits only for its own injected latency, through
      an :class:`~repro.net.clock.AsyncLatencyClock` swapped in for the
      run).  See :mod:`repro.confed.scheduler`;
    * ``faults`` — an optional :class:`repro.net.faults.FaultPlan`: the
      seeded, declarative chaos schedule the run should suffer (host
      crashes and recoveries pinned to epochs, message drops /
      duplicates / latency spikes by kind, participant crash-restarts).
      ``Confederation.open()`` wires the plan's message faults into the
      store's simulated network and executes its epoch-scheduled
      actions through :class:`repro.confed.faults.FaultController`.
    """

    store: str = "memory"
    store_options: Dict[str, object] = field(default_factory=dict)
    peers: Tuple[int, ...] = ()
    trust: Optional[Dict[int, Dict[int, int]]] = None
    network_centric: str = "client"
    workload: Optional[WorkloadConfig] = None
    reconciliation_interval: int = 4
    rounds: int = 4
    final_reconcile: bool = False
    schedule_mode: str = "serial"
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if isinstance(self.peers, list):
            self.peers = tuple(self.peers)

    # ------------------------------------------------------------------
    # Validation

    def validate(self) -> "ConfederationConfig":
        """Check internal consistency; returns self.

        Store-name resolution is validated where the store is built
        (the registry raises :class:`~repro.errors.ConfigError` for
        unknown backends); this checks everything that does not need
        the registry.
        """
        if self.schedule_mode not in SCHEDULE_MODES:
            raise ConfigError(
                f"unknown schedule mode {self.schedule_mode!r}; "
                f"available: {', '.join(SCHEDULE_MODES)}"
            )
        # A JSON config file from before the named modes carries a
        # boolean: refuse it naming the replacement, never coerce it.
        if self.network_centric not in NETWORK_CENTRIC_MODES:
            raise ConfigError(
                f"unknown network_centric mode {self.network_centric!r}; "
                f"accepted: 'client' (client-centric, was False), "
                f"'store' (store-computed batches, was True)"
            )
        _check(type(self), self, "")
        known = set(self.peers)
        if len(known) != len(self.peers):
            raise ConfigError(f"duplicate peer ids in peers {self.peers!r}")
        if self.trust is not None:
            for pid, edges in self.trust.items():
                unknown = ({pid} | set(edges)) - known
                if unknown:
                    raise ConfigError(
                        f"trust policy references unknown peers {sorted(unknown)}"
                    )
        for name in ("reconciliation_interval", "rounds"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be an int >= 0, got {getattr(self, name)!r}")
        if self.faults is not None:
            self.faults.validate()
            for restart in self.faults.restarts:
                if known and restart.participant not in known:
                    raise ConfigError(
                        f"fault plan restarts unknown participant "
                        f"{restart.participant}; peers: {sorted(known)}"
                    )
        return self

    @property
    def network_centric_store(self) -> bool:
        """True when the config asks for store-computed batches."""
        return self.network_centric == "store"

    # ------------------------------------------------------------------
    # Dict round-trip

    def to_dict(self) -> Dict[str, object]:
        """A plain, JSON-safe dict representation.

        Records become dicts of their fields, tuples lists, and mapping
        keys strings (JSON objects only have string keys);
        :meth:`from_dict` reads them back off the declared field types,
        so the round trip — including a ``json.dumps``/``json.loads``
        detour — is exact.
        """
        return _plain(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ConfederationConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys, at any depth, raise
        :class:`~repro.errors.ConfigError` — a typo in a config file
        must not silently fall back to a default — and so does a nested
        value of the wrong type, naming its dotted path
        (``faults.crashes[0].at_epoch``); the config's own fields are
        type-checked by :meth:`validate`.
        """
        if not isinstance(data, Mapping):
            raise ConfigError(f"a config must be a mapping of its fields, got {data!r}")
        return cls(**_arguments(cls, data, ""))

    # ------------------------------------------------------------------
    # Convenience constructors

    @classmethod
    def evaluation(
        cls, participants: int = 10, **overrides
    ) -> "ConfederationConfig":
        """The evaluation-section shape: peers ``1..n``, mutual trust."""
        return cls(peers=tuple(range(1, participants + 1)), **overrides)
