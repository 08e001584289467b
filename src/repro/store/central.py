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

The paper assumes update stores are persistent, so this one store is
also the honest persistent quadrant — on a database file or, by
default, on ``:memory:``, with no code path that asks which:

* the **append-only schema** (epochs, transaction bodies, antecedent
  edges, producers, verdicts, reconciliation records) is written in WAL
  mode, one explicit transaction per store call.  It holds facts, never
  derived data: a publication allocates its ``ord``s itself and writes
  each table in one ``executemany``, and an extension is computed when
  asked for, never stored.  Rows are text in a
  self-describing codec — a JSON array when every value is exactly a
  ``str``/``int``/``bool``/``None``, the ``repr`` literal otherwise, the
  decoder choosing by the first character: the common row decodes
  without compiling anything, any hashable literal round-trips
  type-exactly, a database written as ``repr`` throughout still opens,
  and nothing read from the file is ever executed;
* a **reconciliation costs what its window costs**: its bodies and its
  antecedent edges (each saying whether the reconciling participant
  applied the antecedent) are one chunked ``IN`` read each, the verdicts
  one ``executemany`` under the ``ord`` the batch carried — nothing
  sized by the history is read or built;
* **bounded resident memory**: transaction bodies page from the
  database through a :class:`repro.core.cache.PageCache` (LRU,
  ``cache_size`` entries): O(cache) bodies in RAM, not O(history); the
  shared context-free extension memo is retired
  (:meth:`~repro.store.network_centric.DirectLogStore.retire_shared_entries`)
  by eviction, exactly as on every other log;
* **crash recovery** on every open
  (:meth:`CentralUpdateStore._recover`): O(delta), never a full-history
  replay, and a no-op on a fresh database — which is what lets
  ``Confederation.open()`` re-register the configured peers
  (:meth:`CentralUpdateStore.register_participant` *adopts* a row
  already on disk) and ``Confederation.restore()`` rebuild each
  replica from the persisted decisions.

Two registry names select this class: ``central`` charges a per-call
JDBC overhead (:attr:`CentralUpdateStore.DEFAULT_CALL_OVERHEAD`),
``durable`` (:mod:`repro.store.durable`) none.
"""

from __future__ import annotations

import ast
import json
import sqlite3
from contextlib import AbstractContextManager
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.cache import PageCache
from repro.core.decisions import ReconcileResult
from repro.errors import StoreError, UnknownTransactionError
from repro.model.schema import Schema
from repro.model.transactions import Transaction, TransactionId
from repro.model.updates import Delete, Insert, Modify, Update
from repro.policy.acceptance import TrustPolicy
from repro.store.base import DEFAULT_MESSAGE_LATENCY, LogEntry
from repro.store.logic import compute_antecedents
from repro.store.network_centric import DirectLogStore

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
CREATE TABLE IF NOT EXISTS applied_versions (
    participant INTEGER PRIMARY KEY,
    version INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_epochs_unfinished ON epochs (epoch)
    WHERE finished = 0;
CREATE INDEX IF NOT EXISTS idx_txns_epoch ON txns (epoch);
CREATE INDEX IF NOT EXISTS idx_decisions ON decisions (participant, verdict);
CREATE INDEX IF NOT EXISTS idx_decisions_ord ON decisions (ord);
"""


#: The value types JSON keeps apart from one another; a row holding
#: anything else (``AttributeDef.dtype=None`` admits any hashable
#: literal: a ``float``, ``bytes``, a nested tuple) is its ``repr``.
_PLAIN = frozenset((str, int, bool, type(None)))
_to_json = json.JSONEncoder(separators=(",", ":")).encode


def _encode_row(row: Optional[Tuple]) -> Optional[str]:
    if row is None:
        return None
    return _to_json(row) if _PLAIN.issuperset(map(type, row)) else repr(row)


class _NonFinite(ast.NodeTransformer):
    def visit_Name(self, node: ast.Name) -> ast.AST:
        """``repr`` writes ``inf`` and ``nan`` as names, which are no literals."""
        return ast.Constant(float(node.id)) if node.id in ("inf", "nan") else node


def _decode(text: str):
    """Parse a row: ``[`` opens the JSON form, anything else is a
    ``repr`` literal.  The database file outlives the process and is an
    input — neither parser executes it."""
    if text[0] == "[":
        return json.loads(text)
    try:
        return ast.literal_eval(text)
    except ValueError:  # maybe only an ``inf`` or a ``nan``: see _NonFinite
        return ast.literal_eval(_NonFinite().visit(ast.parse(text, mode="eval")))


def _decode_row(text: Optional[str]) -> Optional[Tuple]:
    return None if text is None else tuple(_decode(text))


_KIND_OF = {Insert: "insert", Delete: "delete", Modify: "modify"}


def _implode(kind: str, relation: str, old_row, new_row, origin: int) -> Update:
    """An update from its stored ``(kind, relation, old, new, origin)``."""
    if kind == "insert":
        return Insert(relation, new_row, origin)
    if kind == "delete":
        return Delete(relation, old_row, origin)
    return Modify(relation, old_row, new_row, origin)


class _AppliedTids(set):
    """One participant's applied set as one batch sees it: window-sized.

    Holds the applied ids the batch has *asked about*: ``in`` asks the
    database, once per id, and the antecedent read (``_entries``)
    answers for a whole window beforehand.  The network-centric caches'
    ``members & applied`` / ``members.isdisjoint(applied)`` run on what
    is held and test only emptiness, for which that is exact: a closure
    walk asks about every antecedent of every unapplied member it
    reaches, so the first applied member on any path from a root is
    held before an extension of that root is looked at.
    """

    def __init__(self, conn: sqlite3.Connection, participant: int) -> None:
        self._conn = conn  # (the set itself starts empty)
        self.participant = participant
        self._unapplied: Set[TransactionId] = set()

    def learn(self, tid: TransactionId, applied: bool) -> bool:
        """Remember the database's answer for ``tid`` (and return it)."""
        (self.add if applied else self._unapplied.add)(tid)
        return applied

    def __contains__(self, tid: object) -> bool:
        if super().__contains__(tid):
            return True
        if tid in self._unapplied:
            return False
        found = self._conn.execute(
            "SELECT 1 FROM txns t JOIN decisions d ON d.ord = t.ord"
            " WHERE t.participant = ? AND t.seq = ? AND d.participant = ?"
            " AND d.verdict = 'applied'",
            (tid.participant, tid.sequence, self.participant),
        ).fetchone()
        return self.learn(tid, found is not None)


class CentralUpdateStore(DirectLogStore, AbstractContextManager):
    """The relational update store: one sqlite database, memory or file."""

    capabilities = replace(DirectLogStore.capabilities, durable=True)

    #: Default simulated cost per store API call, in seconds.  The paper's
    #: central store was a commercial RDBMS on a separate server reached
    #: over switched 100Mb Ethernet; each of the "constant number of
    #: procedures invoked during each reconciliation" paid a network round
    #: trip plus DBMS request processing.  Our in-process sqlite pays
    #: neither, so this per-call overhead — the order of magnitude of a
    #: 2006-era JDBC call — preserves the fixed cost per reconciliation
    #: that drives Figure 10 (frequent reconciliation is expensive here).
    DEFAULT_CALL_OVERHEAD = 0.025

    #: Default transaction-body page-cache capacity (entries, not bytes):
    #: large enough that an evaluation-schedule frontier never thrashes,
    #: small enough that resident memory is visibly O(cache), not
    #: O(history), at benchmark scale.
    DEFAULT_CACHE_SIZE = 1024

    def __init__(
        self,
        schema: Schema,
        path: str = ":memory:",
        *,
        message_latency: float = DEFAULT_MESSAGE_LATENCY,
        call_overhead_seconds: Optional[float] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        real_latency: bool = False,
    ) -> None:
        """``path`` is the database file (the default ":memory:"
        obviously cannot survive a process restart);
        ``call_overhead_seconds`` defaults to the class's
        :attr:`DEFAULT_CALL_OVERHEAD`; ``cache_size`` bounds the
        resident transaction bodies."""
        super().__init__(schema, message_latency, real_latency=real_latency)
        if call_overhead_seconds is None:
            call_overhead_seconds = self.DEFAULT_CALL_OVERHEAD
        self._call_overhead = call_overhead_seconds
        # A confederation is driven from one thread; sqlite's own
        # thread-affinity check guards the connection.
        self._conn = sqlite3.connect(path)
        self._conn.execute("PRAGMA journal_mode=WAL")
        # The standard WAL pairing: commits append to the WAL without an
        # fsync of the main database; the log stays consistent, so a crash
        # can lose the most recent commits but never tear one.
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA_SQL)
        self._policies: Dict[int, TrustPolicy] = {}
        # Per-participant applied-set versions for the network-centric
        # caches, mirrored in the ``applied_versions`` table.
        self._applied_versions: Dict[int, int] = {}
        self._page_cache = PageCache(cache_size)
        # Kept of the batch each participant is deciding, window-sized:
        # the ``ord`` of every transaction delivered (its verdict is
        # written under it) and the applied set as that batch sees it.
        self._outstanding: Dict[int, Tuple[dict, _AppliedTids]] = {}
        self._recover()

    def close(self) -> None:
        """Close the sqlite connection."""
        self._conn.close()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _recover(self) -> None:
        """Resume from whatever the database holds (nothing, when fresh).

        Opening the connection already replayed sqlite's WAL.  Two
        pieces of soft state are then rebuilt in O(delta): an epoch
        still marked unfinished belongs to a publisher that died between
        ``begin_publish`` and ``finish_publish`` — its batch committed
        atomically (``write_transactions`` is one sqlite transaction) or
        not at all, so it is marked finished and stops blocking the
        stable-epoch computation; and the applied-set version counters
        are loaded from ``applied_versions`` — no history replay.  The
        unfinished epochs are found through ``idx_epochs_unfinished``,
        which holds nothing else, and no other row is touched: a table
        an earlier schema had and this one does not is left unread.
        """
        with self._conn:
            self._conn.execute("UPDATE epochs SET finished = 1 WHERE finished = 0")
        self._applied_versions.update(
            self._conn.execute("SELECT participant, version FROM applied_versions")
        )

    # ------------------------------------------------------------------

    def register_participant(self, participant: int, policy: TrustPolicy) -> None:
        """Register a participant, adopting its on-disk record if any.

        Re-registering an id already attached *in this process* is
        still an error; an id present only in the database (a previous
        incarnation of the confederation) is adopted — its decisions,
        reconciliation epoch, and version counter all resume.
        """
        if participant in self._policies:
            raise StoreError(f"participant {participant} already registered")
        self._policies[participant] = policy
        with self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO participants (id) VALUES (?)", (participant,)
            )
        self._charge_call()

    def _policy_of(self, participant: int) -> TrustPolicy:
        try:
            return self._policies[participant]
        except KeyError:
            raise StoreError(f"participant {participant} is not registered") from None

    # ------------------------------------------------------------------
    # Publication (begin epoch -> write transactions -> finish epoch)

    def begin_publish(self, participant: int) -> int:
        """Allocate an epoch and record that publishing has started."""
        self._policy_of(participant)
        with self._conn:
            epoch = self._conn.execute(
                "INSERT INTO epochs (participant) VALUES (?)", (participant,)
            ).lastrowid
        self._charge_call()
        return epoch

    def _validate_open_epoch(self, participant: int, epoch: int) -> None:
        record = self._conn.execute(
            "SELECT participant, finished FROM epochs WHERE epoch = ?", (epoch,)
        ).fetchone()
        if record is None or int(record[0]) != participant:
            raise StoreError(f"epoch {epoch} is not being published by {participant}")
        if int(record[1]):
            raise StoreError(f"epoch {epoch} is already finished")

    def write_transactions(
        self, participant: int, epoch: int, transactions: Sequence[Transaction]
    ) -> None:
        """Write transactions under an open epoch, in one sqlite
        transaction: one probe for ids already published, the batch's
        ``ord``s allocated here in publish order, and every table's rows
        in one ``executemany``."""
        self._validate_open_epoch(participant, epoch)
        txns, updates, edges, verdicts = [], [], [], []
        # The producer-index rows this batch adds, probed before the
        # table so a transaction sees those written earlier in its own
        # batch.  The key is ``(relation, repr(row))``: it is matched,
        # never decoded, and ``repr`` is the cheapest exact text.
        produced: Dict[Tuple[str, str], Tuple[TransactionId, int]] = {}

        def producer_of(key: Tuple[str, Tuple]) -> Optional[TransactionId]:
            """The transaction that most recently produced row ``key``."""
            key = key[0], repr(key[1])
            if key in produced:
                return produced[key][0]
            record = self._conn.execute(
                "SELECT t.participant, t.seq FROM producers p"
                " JOIN txns t ON t.ord = p.ord"
                " WHERE p.relation = ? AND p.row = ?",
                key,
            ).fetchone()
            return None if record is None else TransactionId(*record)

        with self._conn:
            # The write lock before the reads: ``ord`` is the global
            # publish order, so nothing may publish between ``MAX(ord)``
            # and this batch's rows.
            self._conn.execute("BEGIN IMMEDIATE")
            published = {
                seq
                for (seq,) in self._select_in(
                    "SELECT seq FROM txns WHERE participant = ? AND seq IN ({})",
                    [transaction.tid.sequence for transaction in transactions],
                    participant,
                )
            }
            ord_ = self._scalar("SELECT COALESCE(MAX(ord), 0) FROM txns")
            for transaction in transactions:
                tid = transaction.tid
                if transaction.origin != participant:
                    raise StoreError(f"participant {participant} cannot publish {tid}")
                if tid.sequence in published:  # earlier, or in this batch
                    raise StoreError(f"transaction {tid} was already published")
                published.add(tid.sequence)
                ord_ += 1
                txns.append((ord_, participant, tid.sequence, epoch))
                antecedents = compute_antecedents(producer_of, transaction)
                for idx, update in enumerate(transaction.updates):
                    old_row, new_row = update.read_row(), update.written_row()
                    row = ord_, idx, _KIND_OF[type(update)], update.relation
                    updates.append(row + (_encode_row(old_row), _encode_row(new_row)))
                    if new_row is not None:
                        produced[update.relation, repr(new_row)] = tid, ord_
                edges += [(ord_, a.participant, a.sequence) for a in antecedents]
                # The publisher has, by definition, applied its own.
                verdicts.append((participant, ord_, "applied"))
            many = self._conn.executemany  # positional: _SCHEMA_SQL's order
            many("INSERT INTO txns VALUES (?, ?, ?, ?)", txns)
            many("INSERT INTO txn_updates VALUES (?, ?, ?, ?, ?, ?)", updates)
            many(
                "INSERT OR REPLACE INTO producers VALUES (?, ?, ?)",
                [(*key, found[1]) for key, found in produced.items()],
            )
            many(
                "INSERT OR IGNORE INTO antecedents SELECT ?, ord FROM txns"
                " WHERE participant = ? AND seq = ?",
                edges,
            )
            many(self._VERDICT_SQL, verdicts)
            if transactions:  # the publisher applied them: one bump a batch
                self._bump_applied_version(participant)
        self._charge_call()

    def finish_publish(self, participant: int, epoch: int) -> None:
        """Record that the peer has finished writing this epoch."""
        self._validate_open_epoch(participant, epoch)
        with self._conn:
            self._conn.execute(
                "UPDATE epochs SET finished = 1 WHERE epoch = ?", (epoch,)
            )
        self._charge_call()

    # ------------------------------------------------------------------
    # Reconciliation (the batch itself is DirectLogStore's)

    #: Stable epoch: largest prefix of finished epochs — read through
    #: ``idx_epochs_unfinished``, never by scanning ``epochs``.
    _STABLE_EPOCH_SQL = (
        "SELECT COALESCE(MIN(epoch) - 1,"
        " (SELECT COALESCE(MAX(epoch), 0) FROM epochs))"
        " FROM epochs WHERE finished = 0"
    )

    def _nc_advance(self, participant: int) -> Tuple[int, int]:
        self._policy_of(participant)
        last = self.last_reconciliation_epoch(participant)
        # The paper holds the epochs-table lock just long enough to read
        # the stable epoch and record the reconciliation; sqlite's
        # transaction gives the same effect.
        with self._conn:
            stable = self._scalar(self._STABLE_EPOCH_SQL)
            self._conn.execute(
                "INSERT INTO reconciliations VALUES (?, ?, ?)",
                (participant, stable, stable),
            )
            self._conn.execute(
                "UPDATE participants SET last_recon_epoch = ? WHERE id = ?",
                (stable, participant),
            )
        return last, stable

    def _nc_candidates(self, participant: int, last: int, stable: int):
        # The window's undecided foreign transactions.
        rows = self._conn.execute(
            "SELECT t.ord, t.participant, t.seq FROM txns t"
            " WHERE t.epoch > ? AND t.epoch <= ? AND t.participant != ?"
            " AND NOT EXISTS (SELECT 1 FROM decisions d"
            " WHERE d.participant = ? AND d.ord = t.ord) ORDER BY t.ord",
            (last, stable, participant, participant),
        )
        refs = [(ord_, TransactionId(pid, seq)) for ord_, pid, seq in rows]
        applied = _AppliedTids(self._conn, participant)
        self._outstanding[participant] = {t: o for o, t in refs}, applied
        return self._entries(refs, applied)

    _VERDICT_SQL = "INSERT OR REPLACE INTO decisions VALUES (?, ?, ?)"

    def complete_reconciliation(
        self, participant: int, result: ReconcileResult
    ) -> None:
        """Record decisions (see the base class): the verdicts and the
        version bump commit together or not at all."""
        ords = self._outstanding.pop(participant, ({}, None))[0]
        verdicts = [(tid, "applied") for tid in result.applied]
        verdicts += [(tid, "rejected") for tid in result.rejected]
        verdicts += [(tid, "deferred") for tid in result.deferred]
        # Roots the client had cached (deferred in an earlier round) were
        # not in the batch: only their ords are still to look up.
        ords.update(self._ords_for([t for t, _ in verdicts if t not in ords]))
        with self._conn:
            self._conn.executemany(
                self._VERDICT_SQL,
                [(participant, ords[tid], verdict) for tid, verdict in verdicts],
            )
            if result.applied:
                self._bump_applied_version(participant)
            decided = self._fully_decided(result, ords)
        self.retire_shared_entries(decided)
        self._nc_retire(participant, result)
        self._charge_call()

    # ------------------------------------------------------------------
    # Set-based reads: every key is in hand before the statement runs, so
    # a window is read in chunked ``IN`` statements, never row by row —
    # chunks that stay well under SQLITE_MAX_VARIABLE_NUMBER.
    _SQL_CHUNK = 400

    def _select_in(
        self, sql: str, keys: Sequence[int], *leading: object
    ) -> Iterator[Tuple]:
        """The rows of ``sql`` — whose ``{}`` is an ``IN`` list — for
        ``keys``, a chunk at a time; ``leading`` binds before the keys."""
        for start in range(0, len(keys), self._SQL_CHUNK):
            chunk = keys[start : start + self._SQL_CHUNK]
            yield from self._conn.execute(
                sql.format(", ".join("?" * len(chunk))), (*leading, *chunk)
            )

    def _ords_for(self, tids: Sequence[TransactionId]) -> Dict[TransactionId, int]:
        """The ``txns.ord`` of every given id: a chunked read per publisher."""
        ords: Dict[TransactionId, int] = {}
        for pid in sorted({tid.participant for tid in tids}):
            for seq, ord_ in self._select_in(
                "SELECT seq, ord FROM txns WHERE participant = ? AND seq IN ({})",
                [tid.sequence for tid in tids if tid.participant == pid],
                pid,
            ):
                ords[TransactionId(pid, seq)] = ord_
        for tid in tids:
            if tid not in ords:
                raise UnknownTransactionError(str(tid))
        return ords

    def _entries(
        self,
        refs: Sequence[Tuple[int, TransactionId]],
        applied: Optional[_AppliedTids] = None,
    ) -> List[LogEntry]:
        """The log entries of ``refs`` (``(ord, tid)`` pairs), in two
        chunked reads: the bodies the page cache misses (paged in as they
        are built), and every antecedent edge — each saying whether
        ``applied``'s participant applied the antecedent, which is all of
        its history a batch asks for."""
        cache = self._page_cache
        bodies = {ord_: cache.get(ord_) for ord_, _tid in refs}
        missing = {ord_: tid for ord_, tid in refs if bodies[ord_] is None}
        updates: Dict[int, List[Update]] = {ord_: [] for ord_ in missing}
        for ord_, kind, relation, old_text, new_text in self._select_in(
            "SELECT ord, kind, relation, old_row, new_row FROM txn_updates"
            " WHERE ord IN ({}) ORDER BY ord, idx",
            list(missing),
        ):
            rows = _decode_row(old_text), _decode_row(new_text)
            origin = missing[ord_].participant
            updates[ord_].append(_implode(kind, relation, *rows, origin))
        for ord_, tid in missing.items():
            bodies[ord_] = Transaction(tid, tuple(updates[ord_]))
            cache.put(ord_, bodies[ord_])
        edges: Dict[int, List[TransactionId]] = {ord_: [] for ord_ in bodies}
        for ord_, pid, seq, is_applied in self._select_in(
            "SELECT a.ord, t.participant, t.seq, EXISTS (SELECT 1 FROM"
            " decisions d WHERE d.participant = ? AND d.ord = a.ante_ord"
            " AND d.verdict = 'applied') FROM antecedents a"
            " JOIN txns t ON t.ord = a.ante_ord"
            " WHERE a.ord IN ({}) ORDER BY a.ord, a.ante_ord",
            list(bodies),
            None if applied is None else applied.participant,
        ):
            edges[ord_].append(TransactionId(pid, seq))
            if applied is not None:
                applied.learn(edges[ord_][-1], is_applied)
        return [(bodies[ord_], tuple(edges[ord_]), ord_) for ord_, _ in refs]

    def _fully_decided(
        self, result: ReconcileResult, ords: Dict[TransactionId, int]
    ) -> List[TransactionId]:
        """Roots of this result now finally decided by every participant,
        in O(result) grouped reads of the ``decisions (ord)`` index."""
        candidates = sorted(set(result.applied) | set(result.rejected))
        decided = {
            ord_
            for ord_, voters in self._select_in(
                "SELECT ord, COUNT(DISTINCT participant) FROM decisions"
                " WHERE verdict IN ('applied', 'rejected') AND ord IN ({})"
                " GROUP BY ord",
                sorted(ords[tid] for tid in candidates),
            )
            if voters >= len(self._policies)
        }
        return [tid for tid in candidates if ords[tid] in decided]

    def _bump_applied_version(self, participant: int) -> None:
        """Bump the counter in RAM and persist it, inside the caller's
        transaction: it commits with the verdicts that caused it."""
        version = self._applied_versions.get(participant, 0) + 1
        self._applied_versions[participant] = version
        self._conn.execute(
            "INSERT INTO applied_versions (participant, version) VALUES (?, ?)"
            " ON CONFLICT(participant) DO UPDATE SET version = excluded.version",
            (participant, version),
        )

    # ------------------------------------------------------------------
    # Introspection

    def page_cache_stats(self) -> dict:
        """The body page cache's counters (JSON-friendly)."""
        return self._page_cache.as_dict()

    def _scalar(self, sql: str) -> int:
        return int(self._conn.execute(sql).fetchone()[0])

    def current_epoch(self) -> int:
        """The highest epoch allocated so far."""
        return self._scalar("SELECT COALESCE(MAX(epoch), 0) FROM epochs")

    def transaction_count(self) -> int:
        """Total number of transactions ever published."""
        return self._scalar("SELECT COUNT(*) FROM txns")

    def last_reconciliation_epoch(self, participant: int) -> int:
        """The participant's most recent reconciliation epoch."""
        record = self._conn.execute(
            "SELECT last_recon_epoch FROM participants WHERE id = ?", (participant,)
        ).fetchone()
        if record is None:
            raise StoreError(f"participant {participant} is not registered")
        return int(record[0])

    def decided_transactions(self, participant: int):
        """Applied transactions (publish order) plus rejected/deferred ids."""
        applied = self._entries(self._decided(participant, "applied"))
        return (
            [transaction for transaction, _antecedents, _ord in applied],
            sorted(tid for _, tid in self._decided(participant, "rejected")),
            sorted(tid for _, tid in self._decided(participant, "deferred")),
        )

    # ------------------------------------------------------------------
    # Log accessors (see repro.store.network_centric)

    def _nc_deferred_tids(self, participant: int):
        return [tid for _, tid in self._decided(participant, "deferred")]

    def _nc_applied_tids(self, participant: int):
        return self._outstanding[participant][1]

    def _nc_applied_version(self, participant: int) -> int:
        return self._applied_versions.get(participant, 0)

    def _nc_lookup(self, tid: TransactionId):
        return self._entries([(self._ords_for([tid])[tid], tid)])[0]

    def _nc_priority(self, participant: int, transaction: Transaction) -> int:
        return self._policy_of(participant).priority_of(self._schema, transaction)

    def _decided(
        self, participant: int, verdict: str
    ) -> List[Tuple[int, TransactionId]]:
        """``(ord, tid)`` of the participant's decisions with ``verdict``,
        in publish order: one joined query however many there are."""
        rows = self._conn.execute(
            "SELECT d.ord, t.participant, t.seq FROM decisions d"
            " JOIN txns t ON t.ord = d.ord"
            " WHERE d.participant = ? AND d.verdict = ? ORDER BY d.ord",
            (participant, verdict),
        ).fetchall()
        return [(ord_, TransactionId(p, s)) for ord_, p, s in rows]
