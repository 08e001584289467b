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
* :mod:`~repro.confed.scheduler` — the epoch schedule ``open()``
  registers and ``run()`` executes through: one round plan and one loop,
  ``config.schedule_mode`` (one of :data:`SCHEDULE_MODES`) choosing its
  grouping, its latency clock and its error wrapping.
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

__all__ = [
    "Confederation",
    "ConfederationConfig",
    "ConfederationReport",
    "EVENTS",
    "FaultController",
    "HookBus",
    "NETWORK_CENTRIC_MODES",
    "ParticipantSnapshot",
    "SCHEDULE_MODES",
]
