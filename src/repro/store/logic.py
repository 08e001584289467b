"""Store-side bookkeeping shared by every update-store implementation.

* :func:`compute_antecedents` — discover ``ante(X)`` at publish time by
  looking up, for every row value a transaction consumes, which earlier
  published transaction produced that value (the *producer index*: a
  dict, a table or a ring of value controllers — the caller passes the
  lookup);
* :func:`register_producers` — extend the producer index with the values a
  newly published transaction produces;
* :func:`batch_antecedents` — both over a whole publish batch, with one
  lookup for the rows no earlier transaction of the batch produced;
* :func:`stable_epoch` — the paper's "latest epoch not preceded by an
  unfinished epoch" rule that decouples publishing from reconciliation.
"""

from __future__ import annotations

from collections import ChainMap
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.model.transactions import Transaction, TransactionId

#: Producer index: (relation, full row value) -> transaction that produced
#: that exact row most recently.  "Most recent wins" when divergent
#: branches produce the same value; the ambiguity is inherent to
#: value-based provenance and is documented in DESIGN.md.
ProducerIndex = Dict[Tuple[str, Tuple], TransactionId]


def compute_antecedents(
    producer_of: Callable[[Tuple[str, Tuple]], Optional[TransactionId]],
    transaction: Transaction,
) -> List[TransactionId]:
    """The direct antecedents ``ante(X)`` of a transaction being published.

    A transaction's update that deletes or modifies a row depends on the
    transaction that inserted, or modified *to*, that row — unless the row
    was produced earlier inside the same transaction (an internal chain).
    ``producer_of((relation, row))`` is the store's producer index: a
    dict's ``get``, a table query, or a request to the row's value
    controller — it is asked once per consumed row, in update order.
    """
    antecedents: List[TransactionId] = []
    produced_locally: Set[Tuple[str, Tuple]] = set()
    for update in transaction.updates:
        read = update.read_row()
        if read is not None:
            key = (update.relation, read)
            if key in produced_locally:
                produced_locally.discard(key)
            else:
                producer = producer_of(key)
                if producer is not None and producer != transaction.tid:
                    if producer not in antecedents:
                        antecedents.append(producer)
        written = update.written_row()
        if written is not None:
            produced_locally.add((update.relation, written))
    return antecedents


def register_producers(
    producers: ProducerIndex, transaction: Transaction
) -> None:
    """Record every row value ``transaction`` produces in the index.

    Intermediate values of internal chains are registered too: another
    participant may have reconciled mid-chain in an earlier epoch and later
    publish an update consuming the intermediate value.
    """
    for update in transaction.updates:
        written = update.written_row()
        if written is not None:
            producers[(update.relation, written)] = transaction.tid


def batch_antecedents(
    transactions: Sequence[Transaction],
    look_up: Callable[[List[Tuple[str, Tuple]]], ProducerIndex],
) -> Tuple[List[List[TransactionId]], ProducerIndex]:
    """``ante(X)`` of every transaction of a publish batch, and the rows
    the batch produces (its producer-index entries, in publish order).

    ``look_up(rows)`` is called once, for the consumed rows no earlier
    transaction of the batch produced, and returns the index entries it
    found; the others resolve within the batch."""
    earlier: ProducerIndex = {}
    asked: Dict[Tuple[str, Tuple], None] = {}
    for transaction in transactions:
        compute_antecedents(
            lambda row: None if row in earlier else asked.setdefault(row), transaction
        )
        register_producers(earlier, transaction)
    found = look_up(list(asked))
    produced: ProducerIndex = {}
    antecedents = []
    for transaction in transactions:
        antecedents.append(compute_antecedents(ChainMap(produced, found).get, transaction))
        register_producers(produced, transaction)
    return antecedents, produced


def stable_epoch(finished: Dict[int, bool], current: int, stable: int = 0) -> int:
    """The largest epoch ``e`` with no unfinished epoch at or before it.

    ``finished`` maps allocated epoch numbers to completion flags;
    ``current`` is the highest allocated epoch.  Gaps (aborted epochs that
    never began publishing) do not block stability only if recorded as
    finished; callers mark abandoned epochs finished explicitly.
    ``stable`` is an earlier answer to resume from: a finished epoch
    never becomes unfinished again.
    """
    for epoch in range(stable + 1, current + 1):
        if not finished.get(epoch, False):
            break
        stable = epoch
    return stable
