"""Observational equivalence of the four update stores.

The same seeded workload, replayed through the memory, central-sqlite,
durable-file, and simulated-DHT stores, must leave every participant
with an identical instance and identical decision bookkeeping — the
stores may only differ in cost and persistence, never in outcome — and
every reconcile must decide as the reference oracle
(``tests/reference/oracle.py``) does: on ``memory`` under the serial
schedule, on every store under the async one.

Since PR 3 this also pins the DHT's shipping parity: the DHT with
store-derived context-free extensions (and the shared pair memo), the
DHT computing everything client-side, and the central store must make
*byte-identical* accept/reject/defer decisions, in the same order, at
every reconciliation.
"""

from __future__ import annotations

import pytest

from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.store import (
    CentralUpdateStore,
    DhtUpdateStore,
    DurableUpdateStore,
    MemoryUpdateStore,
)
from repro.workload import WorkloadConfig, curated_schema
from tests.conftest import decision_stream
from tests.reference.mirror import Mirror


#: The evaluation schedule every seed below replays, and the 4-peer one
#: on which two extensions share a member *inside* a chain (PR 11's
#: finding: ``direct_conflict_points`` let FlattenError escape).
EVALUATION = dict(peers=5, reconciliation_interval=3, rounds=3)
CHAIN_SHARING = dict(
    peers=4, reconciliation_interval=4, rounds=6, final_reconcile=True
)


def run_with(store_name: str, seed: int, peers, mirrored=False, **schedule):
    schema = curated_schema()
    if store_name == "memory":
        store = MemoryUpdateStore(schema)
    elif store_name == "central":
        store = CentralUpdateStore(schema)
    elif store_name == "durable":
        store = DurableUpdateStore(schema, cache_size=8)
    else:
        store = DhtUpdateStore(schema, hosts=5)
    config = ConfederationConfig.evaluation(
        peers,
        workload=WorkloadConfig(transaction_size=2, seed=seed),
        **schedule,
    )
    confed = Confederation(config, store=store).open()
    mirror = Mirror(confed) if mirrored else None
    report = confed.run()
    if mirror is not None:  # it compared every reconcile as it ran
        assert mirror.compared == len(confed.participants) * (
            schedule["rounds"] + schedule.get("final_reconcile", False)
        )
    snapshots = {p.id: p.instance.snapshot() for p in confed.participants}
    decisions = {
        p.id: (
            sorted(map(str, p.state.applied)),
            sorted(map(str, p.state.rejected)),
            sorted(map(str, p.state.deferred)),
        )
        for p in confed.participants
    }
    return snapshots, decisions, report.state_ratio


@pytest.mark.parametrize("mode", ["serial", "async"])
@pytest.mark.parametrize(
    "seed, schedule",
    [(3, EVALUATION), (17, EVALUATION), (5, CHAIN_SHARING)],
    ids=["3", "17", "5-chain-sharing"],
)
def test_stores_produce_identical_outcomes(seed, schedule, mode):
    # The async schedule has no second implementation to agree with:
    # the oracle is its reference, on every backend.
    mirror_every_store = mode == "async"
    memory = run_with("memory", seed, mirrored=True, schedule_mode=mode, **schedule)
    for store_name in ("central", "durable", "dht"):
        other = run_with(
            store_name, seed, mirrored=mirror_every_store, schedule_mode=mode, **schedule
        )
        assert other == memory  # instances, decisions, state ratio


# ----------------------------------------------------------------------
# PR 3: byte-identical decision pins for DHT shipping parity


def run_with_decision_log(
    store_name,
    store_options,
    seed,
    network_centric="client",
    schedule_mode="serial",
):
    """Replay the seeded evaluation schedule, recording every decision
    event (participant, recno, tid, verdict) in emission order."""
    config = ConfederationConfig(
        store=store_name,
        store_options=store_options,
        peers=(1, 2, 3, 4, 5),
        reconciliation_interval=3,
        rounds=3,
        final_reconcile=True,
        network_centric=network_centric,
        schedule_mode=schedule_mode,
        workload=WorkloadConfig(transaction_size=2, seed=seed),
    )
    hooks = HookBus()
    log = decision_stream(hooks)
    with Confederation(config, hooks=hooks) as confed:
        report = confed.run()
        snapshots = {
            p.id: p.instance.snapshot() for p in confed.participants
        }
    return log, snapshots, report.state_ratio


@pytest.mark.parametrize("seed", [7, 29])
def test_dht_shipping_decisions_byte_identical(seed):
    shipped = run_with_decision_log("dht", {"hosts": 5}, seed)
    client_computed = run_with_decision_log(
        "dht", {"hosts": 5, "ship_context_free": False}, seed
    )
    central = run_with_decision_log("central", {}, seed)
    # The decision *stream* — order included — must match exactly:
    # adopting a shipped extension is only legal when it provably equals
    # the local computation.
    assert shipped[0] == client_computed[0] == central[0]
    assert shipped[1] == client_computed[1] == central[1]
    assert shipped[2] == client_computed[2] == central[2]


# ----------------------------------------------------------------------
# PR 5: the full equivalence matrix, including fully store-computed
# DHT batches (Figure 3's last quadrant)


@pytest.mark.parametrize("seed", [7, 29])
def test_equivalence_matrix_with_store_computed_batches(seed):
    """dht-store-computed / dht-shipped / dht-client-computed / central
    and durable (each client- and store-computed) must emit
    byte-identical decision streams: the store deriving a participant's
    extensions against its applied set is only legal because it provably
    equals the client's own computation — and since PR 9, persisting the
    history to a file with a tiny body page cache must not perturb a
    single verdict either."""
    matrix = [
        run_with_decision_log("dht", {"hosts": 5}, seed, network_centric="store"),
        run_with_decision_log("dht", {"hosts": 5}, seed),
        run_with_decision_log(
            "dht", {"hosts": 5, "ship_context_free": False}, seed
        ),
        run_with_decision_log("central", {}, seed),
        run_with_decision_log("central", {}, seed, network_centric="store"),
        run_with_decision_log("durable", {"cache_size": 4}, seed),
        run_with_decision_log(
            "durable", {"cache_size": 4}, seed, network_centric="store"
        ),
    ]
    reference = matrix[0]
    for other in matrix[1:]:
        assert other[0] == reference[0]  # decision stream, order included
        assert other[1] == reference[1]  # replica snapshots
        assert other[2] == reference[2]  # state ratio


# ----------------------------------------------------------------------
# PR 10: the matrix under the async schedule


@pytest.mark.parametrize("seed", [7, 29])
def test_equivalence_matrix_under_async_schedule(seed):
    """The store-equivalence pin holds under ``schedule_mode="async"``:
    every backend (client- and store-computed) must emit the *same
    global* decision stream — the deadline loop runs whole segments in
    the round plan's fixed order, so even the cross-participant order
    is pinned.  What the stream decides is held
    to the oracle by ``test_stores_produce_identical_outcomes``."""
    matrix = [
        run_with_decision_log(
            "dht", {"hosts": 5}, seed, network_centric="store",
            schedule_mode="async",
        ),
        run_with_decision_log("dht", {"hosts": 5}, seed, schedule_mode="async"),
        run_with_decision_log(
            "dht", {"hosts": 5, "ship_context_free": False}, seed,
            schedule_mode="async",
        ),
        run_with_decision_log("memory", {}, seed, schedule_mode="async"),
        run_with_decision_log("central", {}, seed, schedule_mode="async"),
        run_with_decision_log(
            "central", {}, seed, network_centric="store", schedule_mode="async"
        ),
        run_with_decision_log(
            "durable", {"cache_size": 4}, seed, schedule_mode="async"
        ),
    ]
    reference = matrix[0]
    for other in matrix[1:]:
        assert other[0] == reference[0]  # global stream, order included
        assert other[1] == reference[1]  # replica snapshots
        assert other[2] == reference[2]  # state ratio
