"""Exception hierarchy shared by every subpackage of :mod:`repro`.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  Each subsystem raises the most specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SchemaError(ReproError):
    """A schema definition is invalid, or data does not match its schema."""


class ConstraintViolation(ReproError):
    """Applying an update would violate an integrity constraint."""


class UpdateError(ReproError):
    """An update or transaction is malformed or cannot be applied."""


class FlattenError(UpdateError):
    """An update sequence is internally inconsistent and cannot be flattened."""


class PolicyError(ReproError):
    """A trust policy or acceptance rule is malformed."""


class ConfigError(ReproError):
    """A confederation, registry, or participant configuration is invalid.

    Raised for *caller* mistakes — an unknown store backend name, a
    duplicate participant id, a malformed :class:`ConfederationConfig` —
    as opposed to :class:`StoreError`, which signals store I/O and
    protocol faults.
    """


class StoreError(ReproError):
    """The update store rejected or could not complete an operation."""


class UnknownTransactionError(StoreError):
    """A transaction id was requested that the store has never seen."""


class FaultError(StoreError):
    """A store operation failed because of an injected or real fault.

    Base class for failures the fault-tolerance layer (PR 6) can
    surface past its own masking: lost state a replica could not cover,
    or a retry budget running out.
    """


class RetryExhaustedError(FaultError):
    """A request/reply exchange failed every configured retry attempt.

    The message names the recipient, message kind, and attempt count —
    everything needed to diagnose which reply kept getting lost.
    """


class ReconciliationError(ReproError):
    """The reconciliation engine detected an inconsistent internal state."""


class ResolutionError(ReconciliationError):
    """A conflict-resolution request referenced an unknown group or option."""


class NetworkError(ReproError):
    """The simulated network could not deliver a message."""


class SchedulerError(ReproError):
    """A segment of the ``async`` epoch schedule failed.

    Raised by :func:`repro.confed.scheduler.run` under
    ``schedule_mode="async"`` when a participant's edit, publish or
    reconcile segment raises: the round stops at the failing participant
    in segment order (a failed edit stops the publish barrier there), and
    the message names the phase and the participant.  The original
    exception rides on ``__cause__``.  The serial mode raises it raw.
    """


class WorkloadError(ReproError):
    """The synthetic workload generator was configured incorrectly."""
