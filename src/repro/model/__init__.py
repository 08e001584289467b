"""Data model for the collaborative data sharing system.

This package defines the vocabulary the rest of the library speaks:

* :mod:`repro.model.schema` — relations, keys, and integrity constraints;
* :mod:`repro.model.tuples` — helpers for working with keyed rows;
* :mod:`repro.model.updates` — the three update operations of the paper
  (insert ``+R(a; i)``, delete ``-R(a; i)``, modify ``R(a -> a'; i)``);
* :mod:`repro.model.transactions` — transactions ``Xi:j`` grouping updates;
* :mod:`repro.model.flatten` — Heraclitus-style flattening of update
  sequences into minimal sets of net effects.
"""

from repro.model.flatten import (
    flatten,
    flatten_transactions,
    keys_touched,
)
from repro.model.schema import (
    AttributeDef,
    ForeignKey,
    RelationSchema,
    Schema,
)
from repro.model.transactions import (
    Transaction,
    TransactionId,
    make_transaction,
)
from repro.model.tuples import key_of, row_matches_schema
from repro.model.updates import (
    Delete,
    Insert,
    Modify,
    Update,
    updates_conflict,
)

__all__ = [
    "AttributeDef",
    "Delete",
    "ForeignKey",
    "Insert",
    "Modify",
    "RelationSchema",
    "Schema",
    "Transaction",
    "TransactionId",
    "Update",
    "flatten",
    "flatten_transactions",
    "key_of",
    "keys_touched",
    "make_transaction",
    "row_matches_schema",
    "updates_conflict",
]
