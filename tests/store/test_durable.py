"""Durable-store behaviour: persistence, recovery, bounded paging.

The durable backend's contract beyond the shared store interface:

* the full history (bodies, epochs, verdicts, reconciliation records)
  survives closing the store and reopening the same database file — a
  whole confederation resumes via adopt-on-reopen + ``restore()``;
* an *unclean* close (a publisher that died between ``begin_publish``
  and ``finish_publish``) recovers on reopen: sqlite replays its WAL
  and the dangling epoch is finished so the stable-epoch computation
  is never blocked;
* transaction bodies page through a bounded LRU — a tiny cache limit
  changes residency and cost, never decisions;
* the file holds facts, never derived data: a retired shared-memo
  entry is dropped as on every other log, and a participant registered
  after retirement recomputes it — to the same decisions as ``memory``;
* the async epoch scheduler drives it under the runtime store-phase
  proxies without perturbing a decision.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.analysis.runtime import lock_discipline
from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.core.cache import PageCache
from repro.core.decisions import ReconcileResult
from repro.errors import StoreError
from repro.model import Insert, Transaction, TransactionId
from repro.policy import TrustPolicy
from repro.store import DurableUpdateStore, MemoryUpdateStore
from repro.workload import WorkloadConfig, curated_schema
from tests.conftest import decision_stream

SEED = 23
PEERS = (1, 2, 3, 4)


def evaluation_config(path, cache_size=8, **overrides):
    base = dict(
        store="durable",
        store_options={"path": path, "cache_size": cache_size},
        peers=PEERS,
        reconciliation_interval=3,
        rounds=3,
        workload=WorkloadConfig(transaction_size=2, seed=SEED),
    )
    base.update(overrides)
    return ConfederationConfig(**base)


def run_with_decisions(config):
    hooks = HookBus()
    log = decision_stream(hooks)
    with Confederation(config, hooks=hooks) as confed:
        report = confed.run()
        snapshots = {p.id: p.instance.snapshot() for p in confed.participants}
        store_stats = confed.store.page_cache_stats()
        retired = confed.store.retired_extension_count()
        decision_state = confed.snapshot()
    return log, snapshots, report, store_stats, retired, decision_state


# ----------------------------------------------------------------------
# PageCache unit behaviour


def test_page_cache_is_lru_and_bounded():
    cache = PageCache(2)
    cache.put(1, "a")
    cache.put(2, "b")
    assert cache.get(1) == "a"  # refreshes 1
    cache.put(3, "c")  # evicts 2, the least recently used
    assert cache.get(2) is None
    assert cache.get(1) == "a"
    assert cache.get(3) == "c"
    assert len(cache) == 2
    assert cache.evictions == 1
    assert cache.peak_resident == 2


def test_page_cache_rejects_useless_capacity():
    with pytest.raises(ValueError):
        PageCache(0)


# ----------------------------------------------------------------------
# Persistence: close, reopen, resume


def test_whole_confederation_reopens_from_disk(tmp_path):
    path = str(tmp_path / "store.db")
    first = run_with_decisions(evaluation_config(path))
    assert first[4] > 0  # retirement let shared-memo entries go

    # A brand-new process would do exactly this: same config, same file.
    reopened_config = ConfederationConfig(
        store="durable", store_options={"path": path, "cache_size": 8},
        peers=PEERS,
    )
    with Confederation(reopened_config) as confed:
        # Registration adopted the on-disk participants; restore()
        # rebuilds every replica from the persisted decisions.
        confed.restore()
        assert confed.snapshot() == first[5]
        assert {
            p.id: p.instance.snapshot() for p in confed.participants
        } == first[1]
        # ... and the confederation keeps operating: sequence numbers
        # resume past the persisted history, so no tid is ever reused.
        publisher = confed.participant(1)
        publisher.execute([Insert("F", ("zzz", "prot-new", "novel"), 1)])
        result = publisher.publish_and_reconcile()
        assert any(str(t) for t in result.accepted)


def test_reopen_after_unclean_close_recovers(tmp_path):
    path = str(tmp_path / "store.db")
    schema = curated_schema()
    store = DurableUpdateStore(schema, path=path)
    store.register_participant(1, TrustPolicy())
    store.register_participant(2, TrustPolicy().trust_participant(1, 1))
    store.publish(
        1, [Transaction(TransactionId(1, 0), (Insert("F", ("a", "b", "c"), 1),))]
    )
    # The publisher dies mid-publication: epoch begun, never finished.
    dangling = store.begin_publish(1)
    # Simulate the crash: abandon the connection without closing the
    # store cleanly (the second connection below sees whatever sqlite
    # made durable, exactly like a restarted process).
    del store

    reopened = DurableUpdateStore(schema, path=path)
    reopened.register_participant(1, TrustPolicy())
    reopened.register_participant(2, TrustPolicy().trust_participant(1, 1))
    assert reopened.transaction_count() == 1
    assert reopened.current_epoch() == dangling
    # Recovery finished the dangling epoch, so the stable-epoch
    # computation is not blocked: the committed transaction is delivered.
    batch = reopened.begin_reconciliation(2)
    assert [root.tid for root in batch.roots] == [TransactionId(1, 0)]
    assert batch.recno >= dangling
    reopened.close()


def test_duplicate_in_process_registration_still_raises(tmp_path):
    store = DurableUpdateStore(
        curated_schema(), path=str(tmp_path / "store.db")
    )
    store.register_participant(1, TrustPolicy())
    with pytest.raises(StoreError):
        store.register_participant(1, TrustPolicy())
    store.close()


def test_applied_versions_persist_across_reopen(tmp_path):
    path = str(tmp_path / "store.db")
    first = run_with_decisions(evaluation_config(path))
    assert first[0]  # decisions actually happened

    reopened = DurableUpdateStore(curated_schema(), path=path)
    # The version counters resumed from disk, not from zero: recovery is
    # O(delta), not a full-history replay.
    versions = dict(reopened._applied_versions)
    assert versions
    assert all(v > 0 for v in versions.values())
    reopened.close()


# ----------------------------------------------------------------------
# One set-based read of the log: a reconciliation costs what its window
# costs — in statements, in reads, and in sqlite's own work


def history_run(epochs, batch, observe):
    """One publisher, one consumer, ``epochs`` x ``batch`` single-insert
    transactions; ``observe(conn)`` installs a counter on the store's
    connection and returns ``(reset, read)``.  Returns the per-epoch
    readings of the publish and of the reconcile."""
    config = ConfederationConfig(
        store="durable",
        store_options={"path": ":memory:", "cache_size": 16},
        peers=(1, 2),
    )
    with Confederation(config) as confed:
        reset, read = observe(confed.store._conn)
        publisher, consumer = confed.participant(1), confed.participant(2)
        publishes, reconciles = [], []
        for epoch in range(epochs):
            for serial in range(epoch * batch, (epoch + 1) * batch):
                publisher.execute([Insert("F", (f"k{serial}", "p", "v"), 1)])
            reset()
            publisher.publish()
            publishes.append(read())
            reset()
            result = consumer.reconcile()
            reconciles.append(read())
            assert len(result.accepted) == batch
    return publishes, reconciles


def statements(conn):
    """Observe every sqlite statement (BEGIN/COMMIT and each row of an
    ``executemany`` included)."""
    seen = []
    conn.set_trace_callback(seen.append)
    return seen.clear, lambda: list(seen)


def reads(trace):
    return [sql for sql in trace if sql.lstrip().upper().startswith(("SELECT", "WITH"))]


@pytest.mark.parametrize("batch", [64, 256])
def test_statement_count_is_per_transaction_not_per_history(batch):
    publishes, reconciles = history_run(6, batch, statements)
    # A reconciliation reads its window in a constant number of SELECTs,
    # whatever the batch size and however deep the history ...
    assert {len(reads(trace)) for trace in reconciles} == {len(reads(reconciles[0]))}
    assert len(reads(reconciles[0])) <= 16
    # ... writes one verdict per transaction ...
    assert max(map(len, reconciles)) <= batch + RECONCILE_OVERHEAD
    assert len(reconciles[-1]) == len(reconciles[0])
    # ... in two commits: the reconciliation record, then everything
    # ``complete_reconciliation`` writes.
    assert {trace.count("COMMIT") for trace in reconciles} == {2}
    # One applied-version upsert per published batch, not per transaction.
    assert max(map(len, publishes)) <= 4 * batch + 16


#: Statements a reconcile runs besides its verdicts (measured: 13 at
#: batch 64 and at batch 256).
RECONCILE_OVERHEAD = 13


def stored_rows(conn):
    """Observe how many rows the database holds, over every table."""

    def read():
        tables = conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
        return sum(
            conn.execute(f'SELECT COUNT(*) FROM "{name}"').fetchone()[0]
            for (name,) in tables.fetchall()
        )

    return (lambda: None), read


def test_a_published_transaction_is_five_rows():
    """``txns``, ``txn_updates``, ``producers`` and two verdicts — the
    publisher's and the consumer's — and nothing derived.  Two runs that
    differ only in batch size: every per-epoch row cancels out."""
    epochs, small, large = 3, 32, 64
    rows_small = history_run(epochs, small, stored_rows)[1][-1]
    rows_large = history_run(epochs, large, stored_rows)[1][-1]
    assert (rows_large - rows_small) / (epochs * (large - small)) <= 5


class CountingConnection:
    """The store's connection, counting the Python-level calls made on it
    (``executemany`` is one call however many rows it carries)."""

    def __init__(self, conn):
        self.conn, self.calls = conn, 0

    def execute(self, *args):
        self.calls += 1
        return self.conn.execute(*args)

    def executemany(self, *args):
        self.calls += 1
        return self.conn.executemany(*args)

    def __enter__(self):
        return self.conn.__enter__()

    def __exit__(self, *exc_info):
        return self.conn.__exit__(*exc_info)

    def __getattr__(self, name):
        return getattr(self.conn, name)


def test_a_publish_is_a_constant_number_of_calls():
    """Inserts consume no row, so no producer lookup: whatever the batch
    size, a publish is the same handful of ``execute``/``executemany``."""
    store = DurableUpdateStore(curated_schema())
    store.register_participant(1, TrustPolicy())
    counting = store._conn = CountingConnection(store._conn)
    calls, serial = [], 0
    for batch in (8, 64, 256):
        transactions = [
            Transaction(TransactionId(1, seq), (Insert("F", (f"k{seq}", "p", "v"), 1),))
            for seq in range(serial, serial + batch)
        ]
        serial += batch
        counting.calls = 0
        store.publish(1, transactions)
        calls.append(counting.calls)
    assert len(set(calls)) == 1, calls
    store.close()


@pytest.mark.parametrize("store_cls", [MemoryUpdateStore, DurableUpdateStore])
def test_a_duplicate_publication_is_refused_alike(store_cls):
    """Already published, or twice in one batch: the same ``StoreError``
    on every log, and nothing of the refused batch is kept."""
    store = store_cls(curated_schema())
    store.register_participant(1, TrustPolicy())
    first, second = (
        Transaction(TransactionId(1, seq), (Insert("F", (f"k{seq}", "p", "v"), 1),))
        for seq in (0, 1)
    )
    store.publish(1, [first])
    before = store.decided_transactions(1)
    for batch, named in (([second, first], first), ([second, second], second)):
        with pytest.raises(StoreError) as refused:
            store.publish(1, batch)
        assert str(refused.value) == f"transaction {named.tid} was already published"
        assert store.transaction_count() == 1
        assert store.decided_transactions(1) == before
    store.publish(1, [second])  # the refused batch left nothing in the way
    assert store.transaction_count() == 2


def test_the_stable_epoch_is_read_through_an_index():
    """Neither the stable-epoch query nor recovery's ``UPDATE`` scans
    ``epochs``: both go through the partial index of unfinished ones."""
    store = DurableUpdateStore(curated_schema())
    for sql in (
        store._STABLE_EPOCH_SQL,
        "UPDATE epochs SET finished = 1 WHERE finished = 0",
    ):
        plan = store._conn.execute(f"EXPLAIN QUERY PLAN {sql}").fetchall()
        details = [row[-1] for row in plan]
        assert any("idx_epochs_unfinished" in d for d in details), details
        assert "SCAN epochs" not in details, details  # the table itself
    store.close()


def test_reconcile_cost_is_flat_in_history_depth():
    """sqlite's own work per reconciliation, in virtual-machine steps:
    a statement count cannot see a join over the whole applied set."""

    def vm_steps(conn):
        ticks = [0]

        def tick():
            ticks[0] += 1
            return 0

        conn.set_progress_handler(tick, 100)
        return (lambda: ticks.__setitem__(0, 0)), (lambda: ticks[0])

    _publishes, reconciles = history_run(12, 64, vm_steps)
    assert max(reconciles) <= 1.1 * min(reconciles), reconciles


def test_verdicts_and_version_commit_together(tmp_path, monkeypatch):
    path = str(tmp_path / "store.db")
    store = DurableUpdateStore(curated_schema(), path=path)
    store.register_participant(1, TrustPolicy())
    store.register_participant(2, TrustPolicy().trust_participant(1, 1))
    x10 = Transaction(TransactionId(1, 0), (Insert("F", ("a", "b", "c"), 1),))
    store.publish(1, [x10])
    batch = store.begin_reconciliation(2)
    result = ReconcileResult(recno=batch.recno)
    result.applied = result.accepted = [x10.tid]

    def committed():
        """What a second connection — a restarted process — would see."""
        other = sqlite3.connect(path)
        try:
            return (
                other.execute(
                    "SELECT verdict FROM decisions WHERE participant = 2"
                ).fetchall(),
                other.execute(
                    "SELECT version FROM applied_versions WHERE participant = 2"
                ).fetchall(),
            )
        finally:
            other.close()

    before = committed()
    assert before == ([], [])

    def crash(*_args):
        raise RuntimeError("crashed after the verdict write")

    # The verdicts and the version bump are written by then.
    with monkeypatch.context() as patch:
        patch.setattr(store, "_fully_decided", crash)
        with pytest.raises(RuntimeError):
            store.complete_reconciliation(2, result)
    assert committed() == before  # nothing of the half-done completion
    assert not store._conn.in_transaction

    store.complete_reconciliation(2, result)
    verdicts, versions = committed()
    assert verdicts == [("applied",)] and len(versions) == 1
    store.close()


# ----------------------------------------------------------------------
# Bounded paging: a tiny cache changes cost, never outcomes


def test_tiny_page_cache_keeps_decisions_byte_identical(tmp_path):
    roomy = run_with_decisions(
        evaluation_config(str(tmp_path / "roomy.db"), cache_size=4096)
    )
    tiny = run_with_decisions(
        evaluation_config(str(tmp_path / "tiny.db"), cache_size=2)
    )
    assert tiny[0] == roomy[0]  # decision stream, order included
    assert tiny[1] == roomy[1]  # final instances
    assert tiny[2].state_ratio == roomy[2].state_ratio
    # The tiny cache really was bounded — and really evicted.
    assert tiny[3]["peak_resident"] <= 2
    assert tiny[3]["evictions"] > 0
    assert roomy[3]["evictions"] == 0


# ----------------------------------------------------------------------
# Retirement is eviction on every log: a newcomer recomputes


def newcomer_run(store, tmp_path, memo_limit=None):
    """Peers 1-3 run the evaluation schedule, retiring as they go; then
    peer 4 joins and reconciles the whole history, every retired (or
    evicted) extension recomputed from the log on its miss."""
    options = {}
    if store == "durable":
        options = {"path": str(tmp_path / "store.db"), "cache_size": 8}
    config = evaluation_config(None, store=store, store_options=options, peers=(1, 2, 3))
    hooks = HookBus()
    log = decision_stream(hooks)
    with Confederation(config, hooks=hooks) as confed:
        if memo_limit is not None:  # the FIFO backstop evicts mid-run
            confed.store.SHARED_MEMO_LIMIT = memo_limit
            confed.store.shared_pair_cache().limit = memo_limit
        confed.run()
        retired = confed.store.retired_extension_count()
        policy = TrustPolicy()
        for other in (1, 2, 3):
            policy.trust_participant(other, 1)
        newcomer = confed.add_participant(4, policy)
        newcomer.reconcile()
        recomputed = confed.store.retired_extension_count() - retired
        return log, newcomer.instance.snapshot(), confed.snapshot(), retired, recomputed


@pytest.mark.parametrize("memo_limit", [None, 2])
def test_a_participant_registered_after_retirement_decides_as_on_memory(
    tmp_path, memo_limit
):
    durable = newcomer_run("durable", tmp_path, memo_limit)
    memory = newcomer_run("memory", tmp_path, memo_limit)
    assert durable[:3] == memory[:3]  # decision stream and both snapshots
    assert any(event[0] == 4 for event in durable[0])
    # Entries really were let go before peer 4 came, and re-derived for
    # it (then let go again once it, too, had decided them).
    assert durable[3] == memory[3] > 0
    assert durable[4] == memory[4] > 0
    if memo_limit is not None:
        assert durable[:3] == newcomer_run("memory", tmp_path)[:3]


# ----------------------------------------------------------------------
# Async scheduler under the runtime store-phase proxies


def run_async(path, instrument):
    config = evaluation_config(path, schedule_mode="async")
    hooks = HookBus()
    log = decision_stream(hooks)
    with Confederation(config, hooks=hooks) as confed:
        if instrument:
            with lock_discipline(confed.store) as handle:
                assert handle.wrapped  # containers really got guarded
                confed.run()
        else:
            confed.run()
        snapshots = {p.id: p.instance.snapshot() for p in confed.participants}
    return log, snapshots


def test_async_scheduler_under_lock_discipline(tmp_path):
    """Pipelined reconcile phases against one sqlite connection, every
    store touch owner-checked by the runtime proxies: the instrumented
    run's global decision stream and replicas match the plain async
    run's — the proxies perturb nothing.
    """
    plain = run_async(str(tmp_path / "plain.db"), instrument=False)
    guarded = run_async(str(tmp_path / "guarded.db"), instrument=True)
    assert guarded[0] == plain[0]
    assert guarded[1] == plain[1]
