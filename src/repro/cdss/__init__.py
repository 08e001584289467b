"""CDSS orchestration: the participant.

:class:`repro.cdss.participant.Participant` is one autonomous peer: a
local instance, a trust policy, a reconciler, and the publish /
reconcile / resolve lifecycle of Definition 1.  Whole-system drivers
live in :mod:`repro.confed`: a declarative
:class:`~repro.confed.config.ConfederationConfig` plus the
:class:`~repro.confed.confederation.Confederation` facade.
"""

from repro.cdss.participant import Participant, ReconcileTiming

__all__ = [
    "Participant",
    "ReconcileTiming",
]
