"""The materialised local database instance.

Each CDSS participant controls a local instance of the shared schema
(``Ii(Sigma)`` in Definition 1): :class:`repro.instance.base.Instance`, a
key-indexed in-memory replica with the update-application semantics the
reconciliation engine relies on.  It is soft state (Section 5.2):
:meth:`repro.cdss.participant.Participant.rebuild` re-derives it from the
update store.
"""

from repro.instance.base import Instance

__all__ = ["Instance"]
