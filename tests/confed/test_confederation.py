"""The Confederation facade: lifecycle, participants, snapshot/restore."""

from __future__ import annotations

import pytest

from repro.confed import Confederation, ConfederationConfig
from repro.errors import ConfigError
from repro.instance import Instance
from repro.model import Insert
from repro.policy import TrustPolicy
from repro.store import MemoryUpdateStore, available_stores
from repro.workload import WorkloadConfig, curated_schema

RAT = ("rat", "prot1", "immune")
MOUSE = ("mouse", "prot2", "immune")


class TestLifecycle:
    def test_from_config_is_open(self, schema):
        confed = Confederation.from_config(
            ConfederationConfig(peers=(1, 2)), schema=schema
        )
        assert len(confed) == 2
        assert isinstance(confed.store, MemoryUpdateStore)

    def test_context_manager_opens_and_closes(self, schema):
        with Confederation(ConfederationConfig(peers=(1,)), schema=schema) as c:
            assert len(c) == 1
        with pytest.raises(ConfigError, match="closed"):
            c.add_participant(2, TrustPolicy())

    def test_double_open_rejected(self, schema):
        confed = Confederation(ConfederationConfig(), schema=schema).open()
        with pytest.raises(ConfigError, match="already open"):
            confed.open()

    def test_not_open_yet_rejected(self, schema):
        confed = Confederation(ConfederationConfig(peers=(1,)), schema=schema)
        with pytest.raises(ConfigError, match="not open"):
            confed.participant(1)
        with pytest.raises(ConfigError, match="open"):
            confed.store

    def test_close_is_idempotent(self, schema):
        confed = Confederation(ConfederationConfig(), schema=schema).open()
        confed.close()
        confed.close()

    def test_adopted_store_is_not_closed(self, schema):
        class Probe(MemoryUpdateStore):
            closed = False

            def close(self):
                self.closed = True

        store = Probe(schema)
        with Confederation(ConfederationConfig(peers=(1,)), store=store):
            pass
        assert not store.closed


class TestParticipants:
    def test_duplicate_participant_is_config_error(self, schema):
        with Confederation(ConfederationConfig(), schema=schema) as confed:
            confed.add_participant(1, TrustPolicy())
            with pytest.raises(ConfigError, match="already exists"):
                confed.add_participant(1, TrustPolicy())

    def test_unknown_participant_is_config_error(self, schema):
        with Confederation(ConfederationConfig(), schema=schema) as confed:
            with pytest.raises(ConfigError, match="no participant"):
                confed.participant(7)

    def test_declarative_trust_topology(self, schema):
        config = ConfederationConfig(
            peers=(1, 2), trust={1: {2: 4}, 2: {}}
        )
        with Confederation(config, schema=schema) as confed:
            p2 = confed.participant(2)
            p2.execute([Insert("F", RAT, 2)])
            p2.publish_and_reconcile()
            result = confed.participant(1).publish_and_reconcile()
            # p1 trusts p2 at priority 4, so the insert lands...
            assert [str(t) for t in result.accepted] == ["X2:0"]
            confed.participant(1).execute([Insert("F", MOUSE, 1)])
            confed.participant(1).publish_and_reconcile()
            # ...while p2 trusts nobody: p1's insert is never delivered.
            result = p2.publish_and_reconcile()
            assert result.decisions == {}

    def test_default_trust_is_everyone_at_priority_one(self, schema):
        # With no ``trust`` map every peer trusts every other at
        # priority 1 — the same policies as spelling that map out — so
        # two rival inserts defer at a third peer.
        peers = (1, 2, 3)
        spelled = {pid: {o: 1 for o in peers if o != pid} for pid in peers}
        with Confederation(
            ConfederationConfig(peers=peers, trust=spelled), schema=schema
        ) as explicit:
            expected = {
                pid: explicit.participant(pid).policy.rules for pid in peers
            }
        with Confederation(ConfederationConfig(peers=peers), schema=schema) as confed:
            assert {
                pid: confed.participant(pid).policy.rules for pid in peers
            } == expected
            p1, p2, p3 = confed.participants
            p1.execute([Insert("F", RAT, 1)])
            p1.publish_and_reconcile()
            p2.execute([Insert("F", ("rat", "prot1", "cell-resp"), 2)])
            p2.publish_and_reconcile()
            result = p3.publish_and_reconcile()
            assert result.accepted == []
            assert len(p3.state.deferred) == 2


class TestSnapshotRestore:
    def test_snapshot_reflects_store_decisions(self, schema):
        with Confederation(
            ConfederationConfig(peers=(1, 2)), schema=schema
        ) as confed:
            p1 = confed.participant(1)
            p1.execute([Insert("F", RAT, 1)])
            p1.publish_and_reconcile()
            confed.participant(2).publish_and_reconcile()
            snap = confed.snapshot()
            assert [str(t) for t in snap[1].applied] == ["X1:0"]
            assert [str(t) for t in snap[2].applied] == ["X1:0"]
            assert snap[2].rejected == ()
            assert snap[2].last_recno >= 1

    def test_restore_rebuilds_equivalent_participants(self, schema):
        with Confederation(
            ConfederationConfig(peers=(1, 2, 3)), schema=schema
        ) as confed:
            p1, p2, p3 = confed.participants
            p1.execute([Insert("F", RAT, 1)])
            p1.publish_and_reconcile()
            p2.execute([Insert("F", ("rat", "prot1", "cell-resp"), 2)])
            p2.publish_and_reconcile()
            p3.publish_and_reconcile()  # defers the conflict
            before = {
                pid: p.instance.snapshot() for pid, p in enumerate(
                    confed.participants, start=1
                )
            }
            deferred_before = set(p3.state.deferred)
            restored = confed.restore()
            assert set(restored) == {1, 2, 3}
            for pid, participant in restored.items():
                assert confed.participant(pid) is participant
                assert participant.instance.snapshot() == before[pid]
            assert set(confed.participant(3).state.deferred) == deferred_before

    @pytest.mark.parametrize("name", available_stores())
    def test_restore_builds_a_fresh_replica_equal_to_the_live_one(self, name):
        # The replica is soft state: restore rebuilds it from the store,
        # on every backend, as a new ``Instance`` holding what the old did.
        config = ConfederationConfig(store=name, peers=(1, 2))
        with Confederation.from_config(config) as confed:
            p1, p2 = confed.participants
            p1.execute([Insert("F", RAT, 1), Insert("F", MOUSE, 1)])
            p1.publish_and_reconcile()
            p2.publish_and_reconcile()
            live = {pid: p.instance for pid, p in enumerate(confed.participants, start=1)}
            for pid, participant in confed.restore().items():
                assert type(participant.instance) is Instance
                assert participant.instance is not live[pid]
                assert participant.instance == live[pid]
                assert participant.instance.count("F") == 2

    def test_restored_participants_stay_on_the_bus(self, schema):
        with Confederation(
            ConfederationConfig(peers=(1, 2)), schema=schema
        ) as confed:
            p1 = confed.participant(1)
            p1.execute([Insert("F", RAT, 1)])
            p1.publish_and_reconcile()
            restored = confed.restore(2)
            events = []
            confed.hooks.on_reconcile(
                lambda participant, **_: events.append(participant)
            )
            restored.publish_and_reconcile()
            assert events == [2]


class TestRunAndReport:
    def test_small_run_produces_sane_report(self):
        config = ConfederationConfig.evaluation(
            4, reconciliation_interval=2, rounds=2
        )
        report = Confederation.from_config(config).run()
        assert 1.0 <= report.state_ratio <= 4.0
        assert report.transactions_published == 4 * 2 * 2
        assert report.store_messages > 0
        assert set(report.timings) == {1, 2, 3, 4}
        for agg in report.timings.values():
            assert agg.reconciliations == 2
        # The default in-process store has no simulated network: the
        # wire-metric maps are present but empty.
        assert report.kind_counts == {}
        assert report.kind_bytes == {}

    def test_deterministic_given_seed(self):
        def run(seed):
            config = ConfederationConfig.evaluation(
                4,
                reconciliation_interval=2,
                rounds=2,
                workload=WorkloadConfig(seed=seed),
            )
            return Confederation.from_config(config).run().state_ratio

        assert run(11) == run(11)

    def test_rows_are_validated_once_per_extension_not_per_check(
        self, monkeypatch
    ):
        """The ratchet on what CheckState re-derives: the ``eval-conflict``
        schedule at smoke scale (10 peers, interval 4, 2 rounds + final,
        seed 7000) called ``RelationSchema.validate_row`` 7,387 times at
        the parent commit — every written row of every extension, per
        participant per check and again per apply — and calls it 1,156
        times now: once per row at ``execute``, once per compiled
        footprint.  Seeded and exact; the state ratio pins the outcome."""
        from repro.model.schema import RelationSchema

        calls = []
        validate_row = RelationSchema.validate_row
        monkeypatch.setattr(
            RelationSchema,
            "validate_row",
            lambda rel, row: calls.append(row) or validate_row(rel, row),
        )
        config = ConfederationConfig(
            store="memory",
            peers=tuple(range(1, 11)),
            workload=WorkloadConfig(transaction_size=1, seed=7000),
            reconciliation_interval=4,
            rounds=2,
            final_reconcile=True,
        )
        report = Confederation.from_config(config).run()
        assert report.state_ratio == pytest.approx(53 / 31)
        assert len(calls) <= 1156

    def test_custom_store(self):
        store = MemoryUpdateStore(curated_schema())
        confed = Confederation(
            ConfederationConfig.evaluation(
                3, reconciliation_interval=1, rounds=1
            ),
            store=store,
        ).open()
        report = confed.run()
        assert confed.store is store
        assert report.transactions_published == 3

    def test_report_means(self):
        config = ConfederationConfig.evaluation(
            3, reconciliation_interval=2, rounds=1
        )
        report = Confederation.from_config(config).run()
        assert report.mean_total_seconds_per_participant > 0
        assert report.mean_seconds_per_reconciliation > 0
        assert report.mean_store_seconds_per_participant >= 0
        assert (
            report.mean_total_seconds_per_participant
            == pytest.approx(
                report.mean_store_seconds_per_participant
                + report.mean_local_seconds_per_participant
            )
        )

    def test_report_wire_metrics_mirror_the_dht_network(self):
        config = ConfederationConfig(
            store="dht",
            store_options={"hosts": 3},
            peers=(1, 2, 3),
            reconciliation_interval=2,
            rounds=1,
            workload=WorkloadConfig(seed=11),
        )
        with Confederation(config) as confed:
            report = confed.run()
            net = confed.store.network
            assert report.kind_counts == net.kind_counts
            assert report.kind_bytes == net.kind_bytes
        assert sum(report.kind_counts.values()) > 0
        # Every kind's byte share sums back to the delivered total.
        assert set(report.kind_bytes) == set(report.kind_counts)

    def test_report_metrics_come_from_the_bus(self):
        config = ConfederationConfig(
            peers=(1, 2), reconciliation_interval=2, rounds=1
        )
        with Confederation(config) as confed:
            report = confed.run()
            # The collectors saw every reconciliation the participants
            # ran...
            for pid, agg in report.timings.items():
                assert agg.reconciliations == len(
                    confed.participant(pid).timings
                )
            # ...and the cache totals equal the participants' cumulative
            # counters (one delta per run, summed).
            cumulative = sum(
                confed.participant(pid).reconciler.cache.stats.hits
                + confed.participant(pid).reconciler.cache.stats.misses
                for pid in (1, 2)
            )
            assert (
                report.cache_stats.hits + report.cache_stats.misses
                == cumulative
            )

    def test_report_cache_stats_is_a_snapshot(self):
        config = ConfederationConfig(
            peers=(1, 2), reconciliation_interval=2, rounds=1
        )
        with Confederation(config) as confed:
            first = confed.run()
            frozen = first.cache_stats.as_dict()
            second = confed.run()
            # The first report must not mutate as the run continues.
            assert first.cache_stats.as_dict() == frozen
            assert first.cache_stats is not second.cache_stats

    def test_default_schema_is_the_evaluation_schema(self):
        with Confederation(ConfederationConfig(peers=(1,))) as confed:
            expected = curated_schema()
            assert [r.name for r in confed.schema] == [
                r.name for r in expected
            ]
