"""The unified confederation API: config, facade, lifecycle, hooks.

This is the public entry point for building and running a CDSS:

* :class:`~repro.confed.config.ConfederationConfig` — declarative,
  dict-round-trippable configuration naming the store backend (a driver
  registry name), peers, trust policies, workload, and engine knobs
  in one place;
* :class:`~repro.confed.confederation.Confederation` — the facade built
  from it: participant lifecycle (``open``/``close``, context-manager
  support), ``snapshot``/``restore`` soft-state reconstruction, the
  evaluation schedule (``run``), and metric reports;
* :class:`~repro.confed.hooks.HookBus` — the event bus participants and
  reconcilers emit into (``on_publish``, ``on_epoch_start``,
  ``on_decision``, ``on_conflict``, ``on_cache_stats``,
  ``on_reconcile``, ``on_epoch_end``); metrics are subscribers, not
  engine plumbing;
* :mod:`~repro.confed.scheduler` — the pluggable epoch schedulers
  ``run()`` executes the schedule through
  (:class:`~repro.confed.scheduler.SerialScheduler` /
  :class:`~repro.confed.scheduler.AsyncScheduler`, selected by
  ``config.schedule_mode``).
"""

from repro.confed.config import (
    NETWORK_CENTRIC_MODES,
    SCHEDULE_MODES,
    ConfederationConfig,
)
from repro.confed.confederation import Confederation, ParticipantSnapshot
from repro.confed.faults import FaultController
from repro.confed.hooks import EVENTS, HookBus
from repro.confed.report import ConfederationReport
from repro.confed.scheduler import (
    AsyncScheduler,
    EpochScheduler,
    SerialScheduler,
    create_scheduler,
)

__all__ = [
    "AsyncScheduler",
    "Confederation",
    "ConfederationConfig",
    "ConfederationReport",
    "EVENTS",
    "EpochScheduler",
    "FaultController",
    "HookBus",
    "NETWORK_CENTRIC_MODES",
    "ParticipantSnapshot",
    "SCHEDULE_MODES",
    "SerialScheduler",
    "create_scheduler",
]
