"""Chaos suite: fault plans must not change what gets decided.

The robustness claim of PR 6 is observational: a confederation running
under a :class:`~repro.net.FaultPlan` whose faults are all *maskable*
(crashes within the replication budget, bounded drops/duplicates/delays
within the retry budget, participant restarts) must emit a decision
stream **byte-identical** to the fault-free baseline — faults may only
cost messages and simulated time, never outcomes.

Unmaskable faults must surface loudly, and the surface is pinned per
schedule mode: an unbounded black hole raises
:class:`~repro.errors.RetryExhaustedError` under the serial scheduler
and is wrapped in :class:`~repro.errors.SchedulerError` by the async
one.

Since PR 10 the maskable matrix has an async column too: under
``schedule_mode="async"`` the same chaos plan must leave the decision
stream byte-identical to the fault-free async run, paying real latency
or not — pipelining the latency waits may only change wall-clock time,
never verdicts.
"""

from __future__ import annotations

import pytest

from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.errors import RetryExhaustedError, SchedulerError
from repro.model import Insert, Modify
from repro.net import FaultPlan, HostCrash, MessageFault, ParticipantRestart
from repro.workload import WorkloadConfig
from tests.conftest import decision_stream

CHAOS_SEEDS = [11, 23, 47]

def maskable_plan(seed):
    """The maskable everything-at-once plan: a controller host crash
    that recovers mid-run, capped seeded drops on both directions of
    the store-txn protocol, duplicated allocator replies, slow data
    fetches, and a mid-run crash-restart of participant 3.  Every fault
    here is within the replication/retry budget, so it must be
    invisible in the decision stream — for *any* injection seed."""
    return FaultPlan(
        seed=seed,
        crashes=(HostCrash("host:2", at_epoch=5, recover_at_epoch=10),),
        messages=(
            MessageFault("txn_stored", "drop", probability=0.2, times=4),
            MessageFault("decision_recorded", "drop", probability=0.2, times=4),
            MessageFault("begin_publishing", "duplicate", probability=0.5, times=3),
            MessageFault("txn_data", "delay", probability=0.1, times=5),
        ),
        restarts=(ParticipantRestart(participant=3, at_epoch=8),),
    )


def run_confederation(
    store,
    store_options,
    seed,
    faults=None,
    network_centric="client",
    schedule_mode="serial",
    opened=None,
):
    """Replay the seeded evaluation schedule, recording every decision
    event (participant, recno, tid, verdict) in emission order; with an
    ``opened`` list, also append what ``open()`` left on the wire."""
    config = ConfederationConfig(
        store=store,
        store_options=store_options,
        peers=(1, 2, 3, 4, 5),
        reconciliation_interval=3,
        rounds=3,
        final_reconcile=True,
        network_centric=network_centric,
        schedule_mode=schedule_mode,
        workload=WorkloadConfig(transaction_size=2, seed=seed),
        faults=faults,
    )
    hooks = HookBus()
    log = decision_stream(hooks)
    fired = []
    hooks.on_fault(lambda **event: fired.append(event))
    with Confederation(config, hooks=hooks) as confed:
        if opened is not None:
            opened.append(registration_trace(confed.store.network, fired))
        report = confed.run()
        snapshots = {
            p.id: p.instance.snapshot() for p in confed.participants
        }
    return log, snapshots, report


def registration_trace(network, fired):
    """The registration's wire trace: messages delivered by kind, the
    faults that fired (kind, sender, recipient, in order), and the fault
    injector's RNG state — the draws it made, fired or not."""
    return dict(network.kind_counts), list(fired), network.injector._rng.getstate()


DHT_K2 = {"hosts": 5, "replication_factor": 2}
#: ``DHT_K2`` with its per-message latency paid in wall time.
PAYING_K2 = {**DHT_K2, "message_latency": 0.0002, "real_latency": True}


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_maskable_faults_leave_decisions_byte_identical(seed):
    """Workload seed and fault-plan seed both vary with the matrix."""
    baseline = run_confederation("central", {}, seed)
    fault_free = run_confederation("dht", DHT_K2, seed)
    chaotic = run_confederation(
        "dht", DHT_K2, seed, faults=maskable_plan(seed)
    )
    # Decision stream — order included — instances, and state ratio all
    # match the fault-free runs exactly.
    assert chaotic[0] == fault_free[0] == baseline[0]
    assert chaotic[1] == fault_free[1] == baseline[1]
    assert chaotic[2].state_ratio == baseline[2].state_ratio
    # ... and the faults really happened.
    summary = chaotic[2].faults
    assert summary.injected.get("crash") == 1
    assert summary.injected.get("drop", 0) >= 1
    assert summary.injected.get("duplicate", 0) >= 1
    assert summary.recoveries == 2  # host rejoin + participant restart
    assert summary.retries >= 1


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_maskable_faults_identical_in_store_computed_mode(seed):
    """The same chaos plan over Figure 3's store-computed column."""
    baseline = run_confederation("central", {}, seed)
    chaotic = run_confederation(
        "dht", DHT_K2, seed, faults=maskable_plan(seed),
        network_centric="store",
    )
    assert chaotic[0] == baseline[0]
    assert chaotic[1] == baseline[1]
    assert chaotic[2].state_ratio == baseline[2].state_ratio
    assert chaotic[2].faults.injected.get("crash") == 1


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_batched_delta_protocol_masks_wire_faults(seed):
    """Faults aimed squarely at the PR 8 wire-protocol kinds — the
    batched verdict round-trip (``nc_fetch_batch``/``nc_member_batch``),
    the coalesced ``nc_data``, and the ``nc_unchanged`` digest token —
    must stay invisible: decisions and final instances match the
    fault-free central baseline byte-for-byte.  The probability-1.0
    drops guarantee a dropped-then-retried batch on every seed, so a
    double-apply bug would split the streams and fail the assertion.

    The plan can sink up to 8 messages, and in the worst case every
    drop lands on the same root's request chain in consecutive
    attempts, so the retry budget is raised to keep the plan maskable
    by construction (8 drops < 9 attempts)."""
    plan = FaultPlan(
        seed=seed,
        messages=(
            MessageFault("nc_request", "drop", probability=0.3, times=2),
            MessageFault("nc_fetch_batch", "drop", probability=1.0, times=2),
            MessageFault("nc_data", "drop", probability=0.3, times=2),
            MessageFault("nc_data", "duplicate", probability=1.0, times=3),
            MessageFault(
                "nc_member_batch", "duplicate", probability=0.5, times=3
            ),
            MessageFault("nc_unchanged", "drop", probability=0.5, times=2),
            MessageFault("nc_unchanged", "duplicate", probability=0.5, times=2),
            MessageFault("nc_data", "delay", probability=0.2, times=4),
        ),
    )
    baseline = run_confederation("central", {}, seed)
    chaotic = run_confederation(
        "dht", dict(DHT_K2, max_retries=8), seed,
        faults=plan, network_centric="store"
    )
    assert chaotic[0] == baseline[0]
    assert chaotic[1] == baseline[1]
    assert chaotic[2].state_ratio == baseline[2].state_ratio
    summary = chaotic[2].faults
    assert summary.injected.get("drop", 0) >= 2
    assert summary.injected.get("duplicate", 0) >= 3
    assert summary.retries >= 1


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_maskable_decision_batches_byte_identical(seed):
    """A reconcile's verdicts travel one ``record_decision`` batch per
    controller: dropped and duplicated batches and acks, in both
    directions, around a controller crash and its recovery, must leave
    the decisions of the fault-free run.  A lost batch is re-sent whole
    (recording is idempotent), to the takeover owner while its
    controller is down.  Three drops at most, so even if all of them
    hit one batch in a row the default budget (three retries) masks
    them."""
    plan = FaultPlan(
        seed=seed,
        crashes=(HostCrash("host:2", at_epoch=5, recover_at_epoch=10),),
        messages=(
            MessageFault("record_decision", "drop", probability=0.3, times=2),
            MessageFault("record_decision", "duplicate", probability=0.5, times=3),
            MessageFault("decision_recorded", "drop", probability=0.3, times=1),
            MessageFault("decision_recorded", "duplicate", probability=0.5, times=3),
        ),
    )
    fault_free = run_confederation("dht", DHT_K2, seed)
    chaotic = run_confederation("dht", DHT_K2, seed, faults=plan)
    assert chaotic[0] == fault_free[0]
    assert chaotic[1] == fault_free[1]
    assert chaotic[2].state_ratio == fault_free[2].state_ratio
    summary = chaotic[2].faults
    assert summary.injected.get("crash") == 1 and summary.recoveries == 1
    assert summary.injected.get("drop", 0) >= 1
    assert summary.injected.get("duplicate", 0) >= 1
    # Each lost batch or ack costs one retry of its exchange (two drops
    # in one attempt share it): nothing else in the plan retries.
    extra = summary.retries - fault_free[2].faults.retries
    assert 1 <= extra <= summary.injected["drop"]


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_durable_restart_recovers_from_disk(tmp_path, seed):
    """PR 9: a crash-restarted participant on the ``durable`` backend
    rebuilds its soft state from the database *file* — persisted
    decisions, persisted applied-set counters — and the decision stream
    still matches the fault-free central baseline byte-for-byte, with a
    page cache far smaller than the history."""
    baseline = run_confederation("central", {}, seed)
    plan = FaultPlan(
        seed=seed,
        restarts=(ParticipantRestart(participant=3, at_epoch=8),),
    )
    chaotic = run_confederation(
        "durable",
        {"path": str(tmp_path / f"chaos-{seed}.db"), "cache_size": 8},
        seed,
        faults=plan,
    )
    assert chaotic[0] == baseline[0]
    assert chaotic[1] == baseline[1]
    assert chaotic[2].state_ratio == baseline[2].state_ratio
    assert chaotic[2].faults.recoveries == 1


BLACK_HOLE = FaultPlan(
    seed=1,
    messages=(
        MessageFault("epoch_contents", "drop", probability=1.0, times=None),
    ),
)


def test_unmaskable_fault_raises_retry_exhausted_serial():
    with pytest.raises(RetryExhaustedError):
        run_confederation(
            "dht", {"hosts": 5, "max_retries": 2}, 11, faults=BLACK_HOLE
        )


#: Where a two-transaction DHT publish runs out of retries: the message
#: kind lost and, for a body, which of the two transactions it carries;
#: then how many of them the epoch lists by then.  A lost ``publish_ids``
#: leaves the epoch unfinished, which holds back every later epoch until
#: the publisher's next publish finishes it.
PUBLISH_LOSSES = {
    "first store_txn": ("store_txn", 0, 0),
    "second store_txn": ("store_txn", 1, 1),
    "register_producer": ("register_producer", None, 2),
    "publish_ids": ("publish_ids", None, 2),
}


@pytest.mark.parametrize("loss", sorted(PUBLISH_LOSSES))
def test_a_failed_publish_keeps_its_transactions_for_the_retry(loss):
    """A publish whose store calls run out of retries raises, and keeps
    queued exactly what its epoch does not list: nothing was written
    when the first body is lost, the second stays when only it is lost,
    and a lost producer-index batch or epoch list leaves both listed.
    The retry sends the rest, a later publish still goes through, a
    later transaction that modifies a row the failed publish produced
    names that row's producer as its antecedent (the DHT driver re-sends a
    lost producer-index batch before the epoch's id list), and the other
    peer accepts every transaction exactly once."""
    kind, carried, listed = PUBLISH_LOSSES[loss]
    config = ConfederationConfig(store="dht", store_options={"hosts": 4}, peers=(1, 2))
    with Confederation.from_config(config) as confed:
        p1, p2 = confed.participants
        rows = [("rat", "prot1", "immune"), ("mouse", "prot2", "immune")]
        executed = tuple(p1.execute([Insert("F", row, 1)]) for row in rows)
        network = confed.store.network
        post = network.post

        def lose(message):
            if message.kind != kind or (
                carried is not None and message.payload["transaction"] != executed[carried]
            ):
                post(message)

        network.post = lose
        with pytest.raises(RetryExhaustedError):
            p1.publish()
        network.post = post
        assert p1.unpublished == executed[listed:]
        p1.publish()
        later = p1.execute([Modify("F", rows[0], ("rat", "prot1", "toxic"), 1)])
        p1.publish()
        assert p1.unpublished == ()
        assert confed.store.antecedents_of(later.tid) == (executed[0].tid,)
        assert p2.reconcile().accepted == [t.tid for t in (*executed, later)]
        assert p2.reconcile().accepted == []


def test_the_lost_bodies_of_a_fault_plan_are_published_on_the_retry():
    """The same through a seeded fault plan: the first four ``store_txn``
    sends are dropped, so the first body runs out of retries, the
    publish raises with nothing listed, and the retry publishes both."""
    plan = FaultPlan(seed=1, messages=(MessageFault("store_txn", "drop", 1.0, times=4),))
    config = ConfederationConfig(
        store="dht", store_options={"hosts": 4}, peers=(1, 2), faults=plan
    )
    with Confederation.from_config(config) as confed:
        p1, p2 = confed.participants
        rows = [("rat", "prot1", "immune"), ("mouse", "prot2", "immune")]
        executed = tuple(p1.execute([Insert("F", row, 1)]) for row in rows)
        with pytest.raises(RetryExhaustedError):
            p1.publish()
        assert p1.unpublished == executed
        p1.publish()
        assert p2.reconcile().accepted == [t.tid for t in executed]


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_maskable_faults_byte_identical_under_async_schedule(seed):
    """PR 10's async column of the chaos matrix: the maskable
    everything-at-once plan, replayed under the pipelined scheduler,
    must leave the decision stream byte-identical to the fault-free
    async run.  The async global order is itself deterministic
    (decisions are emitted inside segments that the deadline loop runs
    in the round plan's fixed order), so the comparison is made on the
    full stream."""
    fault_free = run_confederation(
        "dht", DHT_K2, seed, schedule_mode="async"
    )
    chaotic = run_confederation(
        "dht", DHT_K2, seed, faults=maskable_plan(seed),
        schedule_mode="async",
    )
    # The same plan paying real latency, plus lost registrations: the
    # peers register as overlapping segments, the crash, recovery and
    # restart land while latency is outstanding.  The extra draws move
    # every later one, so the retry budget covers the longest run of
    # drops one request can suffer (4), keeping the plan maskable.
    plan = maskable_plan(seed)
    plan.messages += (MessageFault("register_policy", "drop", probability=0.3, times=2),)
    options = {**PAYING_K2, "max_retries": 4}
    paying_open, serial_open = [], []
    paying = run_confederation(
        "dht", options, seed, faults=plan, schedule_mode="async", opened=paying_open
    )
    run_confederation(
        "dht", {**options, "real_latency": False}, seed, faults=plan,
        opened=serial_open,
    )
    assert chaotic[0] == fault_free[0]  # full stream, order included
    assert chaotic[1] == fault_free[1]
    assert chaotic[2].state_ratio == fault_free[2].state_ratio
    assert paying[0] == chaotic[0]  # the order does not depend on latency
    assert paying[1] == fault_free[1]
    # The pipelined open() sent and drew exactly what the serial one
    # did, lost registrations and their retries included.
    assert paying_open == serial_open
    [(kinds, fired, _draws)] = paying_open
    # 5 peers x 5 hosts, each delivered once: both drops were retried.
    assert kinds == {"register_policy": 25, "policy_registered": 25}
    assert [(e["action"], e["kind"]) for e in fired] == [("drop", "register_policy")] * 2
    # ... and the faults really happened under the async schedule too.
    for run in (chaotic, paying):
        summary = run[2].faults
        assert summary.injected.get("crash") == 1
        assert summary.recoveries == 2
        assert summary.retries >= 1


def test_unmaskable_fault_raises_scheduler_error_async():
    """The async scheduler wraps the first per-participant reconcile
    failure in store order in SchedulerError before the publish barrier
    of the next round, with the transport error kept as the cause."""
    with pytest.raises(SchedulerError) as excinfo:
        run_confederation(
            "dht",
            {"hosts": 5, "max_retries": 2},
            11,
            faults=BLACK_HOLE,
            schedule_mode="async",
        )
    assert "reconcile phase failed" in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, RetryExhaustedError)


def test_fault_free_plan_changes_nothing():
    """An empty plan attached to the config is inert: same decisions,
    zero injections reported."""
    seed = CHAOS_SEEDS[0]
    plain = run_confederation("dht", DHT_K2, seed)
    empty = run_confederation("dht", DHT_K2, seed, faults=FaultPlan(seed=9))
    assert empty[0] == plain[0]
    assert empty[2].faults.total_injected == 0
    assert empty[2].faults.recoveries == 0
