"""Declarative, seeded fault plans and their deterministic executor.

The paper's Section 5.2.2 sketches failure handling; reproducing the
claim that a confederation *survives* faults needs a way to schedule
them deterministically.  This module provides both halves:

* :class:`FaultPlan` — a declarative description of every fault a run
  should suffer: host crashes (and recoveries) pinned to epochs,
  message drops / duplicates / latency spikes by message kind with a
  seeded probability, and mid-run participant crash-restarts.  As part
  of :class:`~repro.confed.config.ConfederationConfig` it round-trips
  exactly through plain JSON-safe dicts, so chaos schedules live in
  files and version control.
* :class:`FaultInjector` — the simnet-side executor: attached to
  :attr:`repro.net.simnet.Network.injector`, it is consulted once per
  dequeued message and decides — from one seeded
  :class:`random.Random` stream, so a (plan, seed) pair always injects
  the same faults at the same points — whether that message is
  delivered, dropped, duplicated, or delayed.

Host crashes and participant restarts are *scheduled* here but
*executed* by the confederation's fault controller
(:mod:`repro.confed.faults`), which owns the store and participant
lifecycles; the injector only handles the message-level faults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError

#: Message-fault actions a :class:`MessageFault` can request.
MESSAGE_FAULT_ACTIONS: Tuple[str, ...] = ("drop", "duplicate", "delay")


@dataclass(frozen=True)
class HostCrash:
    """Crash one store host at an epoch, optionally recovering later.

    ``at_epoch``/``recover_at_epoch`` are store epochs: the crash fires
    at the first schedule step where the store's current epoch has
    reached ``at_epoch``; recovery (when configured) fires the same way.
    """

    host: str
    at_epoch: int
    recover_at_epoch: Optional[int] = None


@dataclass(frozen=True)
class MessageFault:
    """Drop, duplicate, or delay messages of one kind.

    Each matching message triggers the fault with ``probability``
    (drawn from the plan's seeded stream); ``times`` bounds the total
    number of injections (``None`` = unlimited, which makes a
    probability-1.0 drop an *unmaskable* black hole).  ``delay_factor``
    scales the network's base latency into the extra delay a
    ``"delay"`` fault charges.
    """

    kind: str
    action: str = "drop"
    probability: float = 1.0
    times: Optional[int] = None
    delay_factor: float = 4.0


@dataclass(frozen=True)
class ParticipantRestart:
    """Crash-restart one participant at an epoch.

    Executed through the confederation's ``snapshot()``/``restore()``
    path: the participant object is discarded and rebuilt entirely from
    the update store — the paper's soft-state claim, exercised mid-run.
    """

    participant: int
    at_epoch: int


def _ends_before(first: HostCrash, second: HostCrash) -> bool:
    """Whether ``first``'s host has recovered before ``second`` crashes it."""
    return first.recover_at_epoch is not None and first.recover_at_epoch < second.at_epoch


@dataclass
class FaultPlan:
    """Every fault one run should deterministically suffer."""

    seed: int = 0
    crashes: Tuple[HostCrash, ...] = ()
    messages: Tuple[MessageFault, ...] = ()
    restarts: Tuple[ParticipantRestart, ...] = ()

    # ------------------------------------------------------------------
    # Validation

    def validate(self) -> "FaultPlan":
        """Check internal consistency; returns self."""
        for index, crash in enumerate(self.crashes):
            if crash.at_epoch < 1:
                raise ConfigError(
                    f"crash of {crash.host!r}: at_epoch must be >= 1"
                )
            if (
                crash.recover_at_epoch is not None
                and crash.recover_at_epoch <= crash.at_epoch
            ):
                raise ConfigError(
                    f"crash of {crash.host!r}: recover_at_epoch must be "
                    f"after at_epoch"
                )
            for other in self.crashes[:index]:
                # Windows of one host that share an epoch (touching ones
                # too) would fire in plan order: one crash is counted
                # twice, or a recovery finds the host already up.
                apart = _ends_before(other, crash) or _ends_before(crash, other)
                if other.host == crash.host and not apart:
                    raise ConfigError(
                        f"crashes of {crash.host!r} overlap: windows [{other.at_epoch}, "
                        f"{other.recover_at_epoch}] and [{crash.at_epoch}, "
                        f"{crash.recover_at_epoch}] share an epoch"
                    )
        for fault in self.messages:
            if fault.action not in MESSAGE_FAULT_ACTIONS:
                raise ConfigError(
                    f"unknown message-fault action {fault.action!r}; "
                    f"accepted: {', '.join(MESSAGE_FAULT_ACTIONS)}"
                )
            if not 0.0 <= fault.probability <= 1.0:
                raise ConfigError(
                    f"message fault on {fault.kind!r}: probability must "
                    f"be within [0, 1]"
                )
            if fault.times is not None and fault.times < 1:
                raise ConfigError(
                    f"message fault on {fault.kind!r}: times must be "
                    f">= 1 (or None for unlimited)"
                )
            if fault.delay_factor < 0:
                raise ConfigError(
                    f"message fault on {fault.kind!r}: delay_factor must "
                    f"be non-negative"
                )
        for restart in self.restarts:
            if restart.at_epoch < 1:
                raise ConfigError(
                    f"restart of participant {restart.participant}: "
                    f"at_epoch must be >= 1"
                )
        return self

    def is_empty(self) -> bool:
        """True when the plan schedules nothing."""
        return not (self.crashes or self.messages or self.restarts)


@dataclass
class _Rule:
    """One message fault with its remaining injection budget."""

    fault: MessageFault
    remaining: Optional[int] = None

    def __post_init__(self) -> None:
        self.remaining = self.fault.times


class FaultInjector:
    """Executes a plan's message faults on the simulated network.

    One seeded RNG stream drives every probability draw, in delivery
    order — the simnet drains FIFO and consults the injector once per
    message, so a given (plan, protocol trace) pair injects identically
    on every run.  ``emit`` (when given) is called with the payload of
    a ``fault`` hook event for each injection.
    """

    def __init__(
        self,
        plan: FaultPlan,
        latency: float,
        emit: Optional[Callable[..., None]] = None,
    ) -> None:
        self._rng = random.Random(plan.seed)
        self._latency = latency
        self._emit = emit
        self._rules: Dict[str, List[_Rule]] = {}
        for fault in plan.messages:
            self._rules.setdefault(fault.kind, []).append(_Rule(fault))
        #: Injections performed so far, by action.
        self.counts: Dict[str, int] = {}

    def intercept(self, message) -> Tuple[str, float]:
        """The simnet hook: ``(action, extra_latency_seconds)``.

        The first matching rule with budget left and a winning draw
        fires; at most one fault per message.
        """
        for rule in self._rules.get(message.kind, ()):
            if rule.remaining is not None and rule.remaining <= 0:
                continue
            if self._rng.random() >= rule.fault.probability:
                continue
            if rule.remaining is not None:
                rule.remaining -= 1
            action = rule.fault.action
            self.counts[action] = self.counts.get(action, 0) + 1
            extra = (
                self._latency * rule.fault.delay_factor
                if action == "delay"
                else 0.0
            )
            if self._emit is not None:
                self._emit(
                    action=action,
                    kind=message.kind,
                    sender=message.sender,
                    recipient=message.recipient,
                )
            return action, extra
        return "deliver", 0.0


__all__ = [
    "FaultInjector",
    "FaultPlan",
    "HostCrash",
    "MessageFault",
    "ParticipantRestart",
    "MESSAGE_FAULT_ACTIONS",
]
