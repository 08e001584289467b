"""The network-centric DHT batch prices only the conflict edges the peer
lacks.

``nc_adjacency`` carries the edges touching a root that is new to the
batch or whose payload changed; an edge depends on its two extensions
alone, so one between two roots that come back unchanged is the one the
peer was sent last round.  These tests keep their own copy of what each
peer was sent — the last batch's extensions and edges — and check on
every round of the equivalence-matrix and chaos schedules, crash and
recovery included, that those held edges together with the ones priced
make up exactly the coordinator's index adjacency.
"""

from __future__ import annotations

import pytest

from repro.cdss import Participant
from repro.confed import Confederation, ConfederationConfig
from repro.core import Resolution
from repro.model import Insert
from repro.net import FaultPlan, HostCrash
from repro.policy import TrustPolicy
from repro.store import DhtUpdateStore
from repro.workload import WorkloadConfig, curated_schema
from tests.integration.test_chaos import CHAOS_SEEDS, DHT_K2, maskable_plan, run_confederation
from tests.integration.test_store_equivalence import run_with_decision_log


def edges(conflicts, among=None):
    """The undirected edges of an adjacency, optionally among some roots."""
    return {
        frozenset((a, b))
        for a, neighbours in conflicts.items()
        for b in neighbours
        if among is None or (a in among and b in among)
    }


class Rounds:
    """Wraps ``begin_network_reconciliation``: per participant, the
    roots whose extension equals the one in its last batch hold that
    batch's edges among them; those, with the edges priced on
    ``nc_adjacency``, must be the coordinator's index adjacency."""

    def __init__(self, monkeypatch):
        self.rounds = self.held = self.shipped = 0
        self.last = {}  # participant -> (extensions, edges) of its last batch
        begin = DhtUpdateStore.begin_network_reconciliation

        def checked(store, participant):
            before = store.network.kind_counts.get("nc_adjacency", 0)
            batch = begin(store, participant)
            shipped = store.network.kind_counts["nc_adjacency"] - before - 1
            index = edges(store._peers[participant].pairs._adjacency)
            assert edges(batch.conflicts) == index
            extensions, sent = self.last.get(participant, ({}, set()))
            unchanged = {
                tid for tid, extension in batch.extensions.items()
                if extensions.get(tid) == extension
            }
            held = {edge for edge in sent if edge <= unchanged}
            assert held == edges(batch.conflicts, among=unchanged), f"participant {participant}"
            assert shipped == len(index - held), f"participant {participant}"
            self.last[participant] = (dict(batch.extensions), index)
            self.rounds += 1
            self.held += len(held)
            self.shipped += shipped
            return batch

        monkeypatch.setattr(DhtUpdateStore, "begin_network_reconciliation", checked)


@pytest.mark.parametrize("mode", ["serial", "async"])
@pytest.mark.parametrize("seed", [7, 29])
def test_equivalence_schedules_price_the_edges_the_peer_lacks(monkeypatch, seed, mode):
    rounds = Rounds(monkeypatch)
    run_with_decision_log("dht", {"hosts": 5}, seed, network_centric="store", schedule_mode=mode)
    assert rounds.rounds == 20 and rounds.shipped > 0
    # Serially a peer's deferred roots outlive a round unchanged; under
    # the async schedule seed 7 never holds an edge (29 does).
    assert rounds.held > 0 or (seed, mode) == (7, "async")


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_schedule_prices_the_edges_the_peer_lacks_across_a_crash(monkeypatch, seed):
    rounds = Rounds(monkeypatch)
    report = run_confederation(
        "dht", DHT_K2, seed, faults=maskable_plan(seed), network_centric="store"
    )[2]
    assert report.faults.injected.get("crash") == 1 and report.faults.recoveries == 2
    assert rounds.rounds == 20 and rounds.held > 0 and rounds.shipped > 0


def test_a_root_whose_closure_moved_ships_its_edges_again(monkeypatch):
    """Twelve peers over six hosts for six rounds, with a crash: here
    deferred roots come back with a new payload — their walks end on
    other closures — and their edges are priced again."""
    rounds = Rounds(monkeypatch)
    config = ConfederationConfig(
        store="dht",
        store_options={"hosts": 6, "replication_factor": 2},
        peers=tuple(range(1, 13)),
        workload=WorkloadConfig(transaction_size=1, seed=16),
        reconciliation_interval=4,
        rounds=6,
        final_reconcile=True,
        network_centric="store",
        faults=FaultPlan(seed=6, crashes=(HostCrash("host:1", at_epoch=18, recover_at_epoch=45),)),
    )
    with Confederation(config) as confed:
        confed.run()
    assert rounds.rounds == 84 and rounds.held > 0 and rounds.shipped > 0


def test_resolving_one_of_two_groups_keeps_the_other(monkeypatch):
    """Two conflict groups deferred in one reconcile; resolving one
    leaves the other open, held by the peer, and reconcilable."""
    rounds = Rounds(monkeypatch)
    store = DhtUpdateStore(curated_schema(), hosts=3)
    peers = {}
    for pid in (1, 2, 3):
        policy = TrustPolicy()
        for other in {1, 2, 3} - {pid}:
            policy.trust_participant(other, 1)
        peers[pid] = Participant(pid, store, policy, network_centric=True)
    for pid, function in ((1, "immune"), (2, "cell-resp")):
        peers[pid].execute([Insert("F", ("rat", "prot1", function), pid)])
        peers[pid].execute([Insert("F", ("mouse", "prot2", function), pid)])
        peers[pid].publish_and_reconcile()

    def reconcile():
        """Peer 3 reconciles: its result and (held, shipped) edges."""
        before = rounds.held, rounds.shipped
        result = peers[3].publish_and_reconcile()
        return result, (rounds.held - before[0], rounds.shipped - before[1])

    result, priced = reconcile()
    assert (len(result.deferred), priced) == (4, (0, 2))  # one edge per group
    result, priced = reconcile()
    assert (len(result.deferred), priced) == (4, (2, 0))  # both held

    groups = peers[3].open_conflicts()
    [rat] = [group for group in groups if group.options[0].effect[0] == "rat"]
    [mouse] = [group for group in groups if group is not rat]
    [chosen] = [i for i, option in enumerate(rat.options) if option.effect[2] == "immune"]
    peers[3].resolve([Resolution(rat.group_id, chosen)])
    assert [group.group_id for group in peers[3].open_conflicts()] == [mouse.group_id]
    assert len(store._peers[3].deferred) == 2

    result, priced = reconcile()
    assert (result.applied, result.rejected, len(result.deferred)) == ([], [], 2)
    assert priced == (1, 0)  # the mouse pair's edge, still held
    assert [group.group_id for group in peers[3].open_conflicts()] == [mouse.group_id]
    assert peers[3].instance.contains_row("F", ("rat", "prot1", "immune"))
