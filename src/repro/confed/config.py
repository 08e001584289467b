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

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.net.faults import FaultPlan
from repro.workload.generator import WorkloadConfig

#: Accepted values of ``ConfederationConfig.network_centric``:
#: ``"client"`` (the paper's client-centric reconciliation) and
#: ``"store"`` (the store computes per-participant extensions and
#: conflict adjacency — ``begin_network_reconciliation``).
NETWORK_CENTRIC_MODES: Tuple[str, ...] = ("client", "store")

#: Epoch-scheduler modes :meth:`repro.confed.Confederation.run` can use
#: (see :mod:`repro.confed.scheduler`).
SCHEDULE_MODES: Tuple[str, ...] = ("serial", "async")


def _trust(value: object) -> Optional[Dict[int, Dict[int, int]]]:
    if value is None:
        return None
    return {
        int(pid): {int(other): int(pri) for other, pri in edges.items()}
        for pid, edges in value.items()
    }


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
      every store implements);
    * ``workload`` plus ``reconciliation_interval`` / ``rounds`` /
      ``final_reconcile`` — the evaluation schedule
      :meth:`repro.confed.Confederation.run` executes;
    * ``schedule_mode`` — which epoch scheduler executes it:
      ``"serial"`` (the paper's strict round-robin) or ``"async"``
      (edit, publish-barrier and reconcile phases as one deadline loop
      on the caller's thread; each participant waits only for its own
      injected latency, through the store's
      :class:`~repro.net.clock.AsyncLatencyClock`).  See
      :mod:`repro.confed.scheduler`;
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
        for name, read in (("peers", tuple), ("trust", _trust)):
            try:
                setattr(self, name, read(getattr(self, name)))
            except (TypeError, ValueError, AttributeError) as exc:
                raise ConfigError(f"config field {name!r} is malformed: {exc}") from None

    # ------------------------------------------------------------------
    # Validation

    def validate(self) -> "ConfederationConfig":
        """Check internal consistency; returns self.

        Store-name resolution is validated where the store is built
        (the registry raises :class:`~repro.errors.ConfigError` for
        unknown backends); this checks everything that does not need
        the registry.
        """
        if not all(type(pid) is int for pid in self.peers):
            raise ConfigError(f"peers must be int ids, got {self.peers!r}")
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
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ConfigError(f"{name} must be an int >= 0, got {value!r}")
        for name, kinds in (
            ("store", str), ("store_options", Mapping), ("final_reconcile", bool),
            ("workload", (WorkloadConfig, type(None))), ("faults", (FaultPlan, type(None))),
        ):
            if not isinstance(getattr(self, name), kinds):
                raise ConfigError(f"{name} has the wrong type: {getattr(self, name)!r}")
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

        Mapping keys become strings (JSON objects only have string
        keys); :meth:`from_dict` converts them back, so the round trip
        — including a ``json.dumps``/``json.loads`` detour — is exact.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(
            store_options=dict(self.store_options),
            peers=list(self.peers),
            trust=None if self.trust is None else {
                str(pid): {str(other): pri for other, pri in edges.items()}
                for pid, edges in self.trust.items()
            },
            workload=None if self.workload is None else asdict(self.workload),
            faults=None if self.faults is None else self.faults.to_dict(),
        )
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ConfederationConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys raise :class:`~repro.errors.ConfigError` — a typo
        in a config file must not silently fall back to a default — and
        so does a value of the wrong shape, naming its field.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown config keys {sorted(unknown)}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        workload = kwargs.get("workload")
        if isinstance(workload, Mapping):
            workload_fields = {f.name for f in fields(WorkloadConfig)}
            unknown = set(workload) - workload_fields
            if unknown:
                raise ConfigError(
                    f"unknown workload keys {sorted(unknown)}; "
                    f"known: {sorted(workload_fields)}"
                )
            kwargs["workload"] = WorkloadConfig(**workload)
        faults = kwargs.get("faults")
        if isinstance(faults, Mapping):
            kwargs["faults"] = FaultPlan.from_dict(faults)
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # Convenience constructors

    @classmethod
    def evaluation(
        cls, participants: int = 10, **overrides
    ) -> "ConfederationConfig":
        """The evaluation-section shape: peers ``1..n``, mutual trust."""
        return cls(peers=tuple(range(1, participants + 1)), **overrides)
