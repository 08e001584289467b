"""The central relational update store (Section 5.2.1), on sqlite3.

The paper built this on "a major commercial RDBMS"; sqlite3 (stdlib)
stands in.  The design points the paper highlights are reproduced:

* an epoch counter implemented as a database sequence (here the
  ``epochs`` table's row ids), with *begin* and *finish* markers per
  publication, so publishing is not assumed instantaneous;
* reconciliation picks "the latest epoch not preceded by an 'unfinished'
  epoch" and records it immediately in the ``reconciliations`` table,
  holding the epochs-table lock as briefly as possible;
* trust-predicate application and update-extension assembly happen
  store-side, so only relevant transactions and their antecedent closures
  travel to the client;
* the sets of applied and rejected transactions per participant live in
  the store (the client keeps only soft state) — a participant's full
  state is reconstructible from the store alone.

Trust policies themselves are Python callables and are held by the store
process rather than serialised into SQL; the paper's store likewise knows
each peer's trust conditions.
"""

from __future__ import annotations

import ast
import sqlite3
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.decisions import ReconcileResult
from repro.core.extensions import (
    ReconciliationBatch,
    RelevantTransaction,
    TransactionGraph,
)
from repro.errors import StoreError, UnknownTransactionError
from repro.model.schema import Schema
from repro.model.transactions import Transaction, TransactionId
from repro.model.updates import Delete, Insert, Modify, Update
from repro.policy.acceptance import TrustPolicy
from repro.store.base import DEFAULT_MESSAGE_LATENCY, UpdateStore
from repro.store.logic import antecedent_closure, compute_antecedents
from repro.store.network_centric import NetworkCentricMixin
from repro.store.registry import StoreCapabilities

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS epochs (
    epoch INTEGER PRIMARY KEY AUTOINCREMENT,
    participant INTEGER NOT NULL,
    finished INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS participants (
    id INTEGER PRIMARY KEY,
    last_recon_epoch INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS txns (
    ord INTEGER PRIMARY KEY AUTOINCREMENT,
    participant INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    epoch INTEGER NOT NULL,
    UNIQUE (participant, seq)
);
CREATE TABLE IF NOT EXISTS txn_updates (
    ord INTEGER NOT NULL,
    idx INTEGER NOT NULL,
    kind TEXT NOT NULL,
    relation TEXT NOT NULL,
    old_row TEXT,
    new_row TEXT,
    PRIMARY KEY (ord, idx)
);
CREATE TABLE IF NOT EXISTS antecedents (
    ord INTEGER NOT NULL,
    ante_ord INTEGER NOT NULL,
    PRIMARY KEY (ord, ante_ord)
);
CREATE TABLE IF NOT EXISTS producers (
    relation TEXT NOT NULL,
    row TEXT NOT NULL,
    ord INTEGER NOT NULL,
    PRIMARY KEY (relation, row)
);
CREATE TABLE IF NOT EXISTS decisions (
    participant INTEGER NOT NULL,
    ord INTEGER NOT NULL,
    verdict TEXT NOT NULL,
    PRIMARY KEY (participant, ord)
);
CREATE TABLE IF NOT EXISTS reconciliations (
    participant INTEGER NOT NULL,
    recno INTEGER NOT NULL,
    epoch INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_txns_epoch ON txns (epoch);
CREATE INDEX IF NOT EXISTS idx_decisions ON decisions (participant, verdict);
"""


def _encode_row(row: Optional[Tuple]) -> Optional[str]:
    return None if row is None else repr(row)


def _decode_row(text: Optional[str]) -> Optional[Tuple]:
    return None if text is None else ast.literal_eval(text)


class CentralUpdateStore(NetworkCentricMixin, UpdateStore):
    """Centralised update store persisted in sqlite3."""

    capabilities = StoreCapabilities(
        ships_context_free=True,
        shared_pair_memo=True,
        durable=True,
        network_centric_batches=True,
    )

    #: Default simulated cost per store API call, in seconds.  The paper's
    #: central store was a commercial RDBMS on a separate server reached
    #: over switched 100Mb Ethernet; each of the "constant number of
    #: procedures invoked during each reconciliation" paid a network round
    #: trip plus DBMS request processing.  Our in-process sqlite pays
    #: neither, so we charge this per-call overhead to preserve the
    #: fixed-cost-per-reconciliation behaviour that drives Figure 10
    #: (frequent reconciliation is expensive on the central store).  The
    #: value is calibrated to the order of magnitude of a 2006-era JDBC
    #: procedure call against a commercial DBMS over switched Ethernet.
    DEFAULT_CALL_OVERHEAD = 0.025

    def __init__(
        self,
        schema: Schema,
        path: str = ":memory:",
        message_latency: float = DEFAULT_MESSAGE_LATENCY,
        call_overhead_seconds: float = DEFAULT_CALL_OVERHEAD,
        real_latency: bool = False,
    ) -> None:
        super().__init__(schema, message_latency, real_latency=real_latency)
        self._call_overhead = call_overhead_seconds
        # Store calls are serialized under ``self.lock`` by every caller
        # (`RPR004`), so the connection may cross scheduler worker
        # threads without its own thread affinity check.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.executescript(_SCHEMA_SQL)
        self._policies: Dict[int, TrustPolicy] = {}
        # Per-participant applied-set versions for the network-centric
        # caches.  Held in memory only: a fresh store object starts at
        # version 0 with empty caches, which is trivially consistent.
        self._applied_versions: Dict[int, int] = {}

    def close(self) -> None:
        """Close the sqlite connection."""
        self._conn.close()

    def __enter__(self) -> "CentralUpdateStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------

    def register_participant(
        self, participant: int, policy: TrustPolicy
    ) -> None:
        """Add a participant and its trust policy."""
        if participant in self._policies:
            raise StoreError(f"participant {participant} already registered")
        self._policies[participant] = policy
        with self._conn:
            self._conn.execute(
                "INSERT INTO participants (id) VALUES (?)", (participant,)
            )
        self._charge_call()

    def _charge_call(self) -> None:
        """Account one client-server procedure call (request + reply,
        plus the simulated DBMS round-trip overhead)."""
        self.perf.charge(2, self._message_latency)
        self.perf.simulated_seconds += self._call_overhead

    def _policy_of(self, participant: int) -> TrustPolicy:
        try:
            return self._policies[participant]
        except KeyError:
            raise StoreError(
                f"participant {participant} is not registered"
            ) from None

    # ------------------------------------------------------------------
    # Publication (begin epoch -> write transactions -> finish epoch)

    def begin_publish(self, participant: int) -> int:
        """Allocate an epoch and record that publishing has started."""
        self._policy_of(participant)
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO epochs (participant, finished) VALUES (?, 0)",
                (participant,),
            )
            epoch = int(cursor.lastrowid)
        self._charge_call()
        return epoch

    def _validate_open_epoch(self, participant: int, epoch: int) -> None:
        record = self._conn.execute(
            "SELECT participant, finished FROM epochs WHERE epoch = ?",
            (epoch,),
        ).fetchone()
        if record is None or int(record[0]) != participant:
            raise StoreError(
                f"epoch {epoch} is not being published by {participant}"
            )
        if int(record[1]):
            raise StoreError(f"epoch {epoch} is already finished")

    def write_transactions(
        self, participant: int, epoch: int, transactions: Sequence[Transaction]
    ) -> None:
        """Write transactions under an open epoch."""
        self._validate_open_epoch(participant, epoch)
        with self._conn:
            for transaction in transactions:
                self._write_transaction(participant, epoch, transaction)
        self._charge_call()

    def finish_publish(self, participant: int, epoch: int) -> None:
        """Record that the peer has finished writing this epoch."""
        self._validate_open_epoch(participant, epoch)
        with self._conn:
            self._conn.execute(
                "UPDATE epochs SET finished = 1 WHERE epoch = ?", (epoch,)
            )
        self._charge_call()

    def _write_transaction(
        self, participant: int, epoch: int, transaction: Transaction
    ) -> None:
        if transaction.origin != participant:
            raise StoreError(
                f"participant {participant} cannot publish {transaction.tid}"
            )
        producers = self._producer_lookup(transaction)
        antecedents = compute_antecedents(producers, transaction)
        try:
            cursor = self._conn.execute(
                "INSERT INTO txns (participant, seq, epoch) VALUES (?, ?, ?)",
                (transaction.tid.participant, transaction.tid.sequence, epoch),
            )
        except sqlite3.IntegrityError:
            raise StoreError(
                f"transaction {transaction.tid} was already published"
            ) from None
        ord_ = int(cursor.lastrowid)
        for idx, update in enumerate(transaction.updates):
            kind, old_row, new_row = _explode(update)
            self._conn.execute(
                "INSERT INTO txn_updates (ord, idx, kind, relation, old_row,"
                " new_row) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    ord_,
                    idx,
                    kind,
                    update.relation,
                    _encode_row(old_row),
                    _encode_row(new_row),
                ),
            )
            written = update.written_row()
            if written is not None:
                self._conn.execute(
                    "INSERT OR REPLACE INTO producers (relation, row, ord)"
                    " VALUES (?, ?, ?)",
                    (update.relation, _encode_row(written), ord_),
                )
        for ante in antecedents:
            ante_ord = self._ord_of(ante)
            self._conn.execute(
                "INSERT OR IGNORE INTO antecedents (ord, ante_ord)"
                " VALUES (?, ?)",
                (ord_, ante_ord),
            )
        # The publisher has, by definition, applied its own transaction.
        self._conn.execute(
            "INSERT OR REPLACE INTO decisions (participant, ord, verdict)"
            " VALUES (?, ?, 'applied')",
            (participant, ord_),
        )
        self._bump_applied_version(participant)

    def _producer_lookup(self, transaction: Transaction):
        """A mapping view good enough for ``compute_antecedents``."""
        store = self

        class _View(dict):
            # Intentional docstring gap: this is dict.get's contract
            # verbatim, narrowed to the producers table.
            def get(self, key, default=None):  # noqa: D102
                relation, row = key
                record = store._conn.execute(
                    "SELECT ord FROM producers WHERE relation = ? AND row = ?",
                    (relation, _encode_row(row)),
                ).fetchone()
                if record is None:
                    return default
                return store._tid_of(int(record[0]))

        return _View()

    # ------------------------------------------------------------------
    # Reconciliation

    def begin_reconciliation(self, participant: int) -> ReconciliationBatch:
        """Assemble the next batch; see the base class."""
        policy = self._policy_of(participant)
        last = self.last_reconciliation_epoch(participant)

        # Stable epoch: largest prefix of finished epochs.  The paper holds
        # the epochs-table lock just long enough to read this and record
        # the reconciliation; sqlite's connection-level transaction gives
        # the same effect.
        with self._conn:
            record = self._conn.execute(
                "SELECT COALESCE(MIN(epoch) - 1, "
                " (SELECT COALESCE(MAX(epoch), 0) FROM epochs))"
                " FROM epochs WHERE finished = 0"
            ).fetchone()
            recon_epoch = int(record[0])
            self._conn.execute(
                "INSERT INTO reconciliations (participant, recno, epoch)"
                " VALUES (?, ?, ?)",
                (participant, recon_epoch, recon_epoch),
            )
            self._conn.execute(
                "UPDATE participants SET last_recon_epoch = ? WHERE id = ?",
                (recon_epoch, participant),
            )

        rows = self._conn.execute(
            "SELECT t.ord FROM txns t"
            " WHERE t.epoch > ? AND t.epoch <= ? AND t.participant != ?"
            " AND NOT EXISTS (SELECT 1 FROM decisions d WHERE"
            "   d.participant = ? AND d.ord = t.ord)"
            " ORDER BY t.ord",
            (last, recon_epoch, participant, participant),
        ).fetchall()

        roots: List[RelevantTransaction] = []
        for (ord_,) in rows:
            transaction = self._load_transaction(ord_)
            priority = policy.priority_of(self._schema, transaction)
            if priority <= 0:
                continue
            roots.append(
                RelevantTransaction(
                    transaction=transaction, priority=priority, order=ord_
                )
            )

        applied = self._decided_ords(participant, "applied")
        graph = TransactionGraph()
        closure = antecedent_closure(
            lambda tid: self._antecedent_tids(self._ord_of(tid)),
            [root.tid for root in roots],
            stop={self._tid_of(o) for o in applied},
        )
        for tid in closure:
            ord_ = self._ord_of(tid)
            graph.add(
                self._load_transaction(ord_),
                self._antecedent_tids(ord_),
                ord_,
            )

        self._charge_call()
        batch = ReconciliationBatch(
            recno=recon_epoch,
            roots=sorted(roots, key=lambda r: r.order),
            graph=graph,
        )
        # Derived data riding along with the closure transactions: the
        # flattened context-free extensions, computed once per published
        # transaction for the whole confederation (see the mixin).
        self.ship_context_free_extensions(batch)
        return batch

    def complete_reconciliation(
        self, participant: int, result: ReconcileResult
    ) -> None:
        """Record decisions; see the base class."""
        with self._conn:
            for tid in result.applied:
                self._record_decision(participant, tid, "applied")
            for tid in result.rejected:
                self._record_decision(participant, tid, "rejected")
            for tid in result.deferred:
                self._record_decision(participant, tid, "deferred")
        if result.applied:
            self._bump_applied_version(participant)
        self.retire_shared_entries(self._fully_decided(result))
        self._charge_call()

    def _fully_decided(
        self, result: ReconcileResult
    ) -> List[TransactionId]:
        """Roots of this result now finally decided by every participant."""
        candidates = set(result.applied) | set(result.rejected)
        if not candidates:
            return []
        total = len(self._policies)
        retired: List[TransactionId] = []
        for tid in sorted(candidates):
            (count,) = self._conn.execute(
                "SELECT COUNT(DISTINCT participant) FROM decisions"
                " WHERE ord = ? AND verdict IN ('applied', 'rejected')",
                (self._ord_of(tid),),
            ).fetchone()
            if count >= total:
                retired.append(tid)
        return retired

    def _bump_applied_version(self, participant: int) -> None:
        self._applied_versions[participant] = (
            self._applied_versions.get(participant, 0) + 1
        )

    def _record_decision(
        self, participant: int, tid: TransactionId, verdict: str
    ) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO decisions (participant, ord, verdict)"
            " VALUES (?, ?, ?)",
            (participant, self._ord_of(tid), verdict),
        )

    # ------------------------------------------------------------------
    # Introspection

    def current_epoch(self) -> int:
        """The highest epoch allocated so far."""
        record = self._conn.execute(
            "SELECT COALESCE(MAX(epoch), 0) FROM epochs"
        ).fetchone()
        return int(record[0])

    def transaction_count(self) -> int:
        """Total number of transactions ever published."""
        record = self._conn.execute("SELECT COUNT(*) FROM txns").fetchone()
        return int(record[0])

    def last_reconciliation_epoch(self, participant: int) -> int:
        """The participant's most recent reconciliation epoch."""
        record = self._conn.execute(
            "SELECT last_recon_epoch FROM participants WHERE id = ?",
            (participant,),
        ).fetchone()
        if record is None:
            raise StoreError(f"participant {participant} is not registered")
        return int(record[0])

    def antecedents_of(self, tid: TransactionId) -> Tuple[TransactionId, ...]:
        """The antecedents computed for ``tid`` at publish time."""
        return self._antecedent_tids(self._ord_of(tid))

    def epoch_of(self, tid: TransactionId) -> int:
        """The epoch ``tid`` was published in."""
        record = self._conn.execute(
            "SELECT epoch FROM txns WHERE participant = ? AND seq = ?",
            (tid.participant, tid.sequence),
        ).fetchone()
        if record is None:
            raise UnknownTransactionError(str(tid))
        return int(record[0])

    def decided_transactions(self, participant: int):
        """Applied transactions (publish order) plus rejected/deferred ids."""
        applied_ords = sorted(self._decided_ords(participant, "applied"))
        return (
            [self._load_transaction(ord_) for ord_ in applied_ords],
            sorted(
                self._tid_of(o)
                for o in self._decided_ords(participant, "rejected")
            ),
            sorted(
                self._tid_of(o)
                for o in self._decided_ords(participant, "deferred")
            ),
        )

    # ------------------------------------------------------------------
    # Network-centric accessors (see repro.store.network_centric)

    def _nc_deferred_tids(self, participant: int):
        ords = sorted(self._decided_ords(participant, "deferred"))
        return [self._tid_of(o) for o in ords]

    def _nc_applied_tids(self, participant: int):
        return {
            self._tid_of(o) for o in self._decided_ords(participant, "applied")
        }

    def _nc_applied_version(self, participant: int) -> int:
        return self._applied_versions.get(participant, 0)

    def _nc_lookup(self, tid: TransactionId):
        ord_ = self._ord_of(tid)
        return self._load_transaction(ord_), self._antecedent_tids(ord_), ord_

    def _nc_priority(self, participant: int, transaction: Transaction) -> int:
        return self._policy_of(participant).priority_of(
            self._schema, transaction
        )

    # ------------------------------------------------------------------
    # Row/transaction codecs

    def _ord_of(self, tid: TransactionId) -> int:
        record = self._conn.execute(
            "SELECT ord FROM txns WHERE participant = ? AND seq = ?",
            (tid.participant, tid.sequence),
        ).fetchone()
        if record is None:
            raise UnknownTransactionError(str(tid))
        return int(record[0])

    def _tid_of(self, ord_: int) -> TransactionId:
        record = self._conn.execute(
            "SELECT participant, seq FROM txns WHERE ord = ?", (ord_,)
        ).fetchone()
        if record is None:
            raise UnknownTransactionError(f"ord={ord_}")
        return TransactionId(int(record[0]), int(record[1]))

    def _antecedent_tids(self, ord_: int) -> Tuple[TransactionId, ...]:
        rows = self._conn.execute(
            "SELECT t.participant, t.seq FROM antecedents a"
            " JOIN txns t ON t.ord = a.ante_ord WHERE a.ord = ?"
            " ORDER BY t.ord",
            (ord_,),
        ).fetchall()
        return tuple(TransactionId(int(p), int(s)) for p, s in rows)

    def _decided_ords(self, participant: int, verdict: str) -> Set[int]:
        rows = self._conn.execute(
            "SELECT ord FROM decisions WHERE participant = ? AND verdict = ?",
            (participant, verdict),
        ).fetchall()
        return {int(r[0]) for r in rows}

    def _load_transaction(self, ord_: int) -> Transaction:
        tid = self._tid_of(ord_)
        rows = self._conn.execute(
            "SELECT kind, relation, old_row, new_row FROM txn_updates"
            " WHERE ord = ? ORDER BY idx",
            (ord_,),
        ).fetchall()
        updates: List[Update] = []
        for kind, relation, old_text, new_text in rows:
            old_row = _decode_row(old_text)
            new_row = _decode_row(new_text)
            if kind == "insert":
                updates.append(Insert(relation, new_row, tid.participant))
            elif kind == "delete":
                updates.append(Delete(relation, old_row, tid.participant))
            else:
                updates.append(
                    Modify(relation, old_row, new_row, tid.participant)
                )
        return Transaction(tid, tuple(updates))


def _explode(update: Update) -> Tuple[str, Optional[Tuple], Optional[Tuple]]:
    """Decompose an update into (kind, old_row, new_row) for storage."""
    if isinstance(update, Insert):
        return "insert", None, update.row
    if isinstance(update, Delete):
        return "delete", update.row, None
    return "modify", update.old_row, update.new_row
