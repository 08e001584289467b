"""Test helpers: hand-built transaction graphs and batches.

These stand in for the update store when exercising the engine directly:
tests declare transactions, antecedent edges, and publish order explicitly.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from repro.core import (
    ReconciliationBatch,
    RelevantTransaction,
    TransactionGraph,
)
from repro.model import Transaction, TransactionId


class GraphBuilder:
    """Incrementally builds a TransactionGraph with publish order."""

    def __init__(self) -> None:
        self.graph = TransactionGraph()
        self._order = 0

    def add(
        self,
        transaction: Transaction,
        antecedents: Iterable[TransactionId] = (),
    ) -> int:
        """Register a transaction; returns its publish order index."""
        order = self._order
        self.graph.add((transaction, tuple(antecedents), order))
        self._order += 1
        return order

    def batch(
        self,
        recno: int,
        trusted: Sequence[Tuple[Transaction, int]],
    ) -> ReconciliationBatch:
        """A batch delivering ``trusted`` (transaction, priority) roots."""
        roots = [
            RelevantTransaction(
                transaction=txn,
                priority=priority,
                order=self.graph.order_of(txn.tid),
            )
            for txn, priority in trusted
        ]
        roots.sort(key=lambda r: r.order)
        return ReconciliationBatch(recno=recno, roots=roots, graph=self.graph)
