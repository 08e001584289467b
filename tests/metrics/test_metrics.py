"""The evaluation metrics: state ratio and timing aggregation."""

from __future__ import annotations

import pytest

from repro.instance import Instance
from repro.metrics import aggregate_timings, divergence_by_key, state_ratio
from repro.model import Insert


class TestStateRatio:
    def test_empty_system(self):
        assert state_ratio({}) == 1.0

    def test_all_agree(self, schema):
        instances = {}
        for pid in (1, 2, 3):
            inst = Instance(schema)
            inst.apply(Insert("F", ("rat", "p1", "immune"), pid))
            instances[pid] = inst
        assert state_ratio(instances) == 1.0

    def test_total_divergence(self, schema):
        instances = {}
        for pid in (1, 2, 3):
            inst = Instance(schema)
            inst.apply(Insert("F", ("rat", "p1", f"fn-{pid}"), pid))
            instances[pid] = inst
        assert state_ratio(instances) == 3.0

    def test_absence_counts_as_a_state(self, schema):
        holder = Instance(schema)
        holder.apply(Insert("F", ("rat", "p1", "immune"), 1))
        empty = Instance(schema)
        assert state_ratio({1: holder, 2: empty}) == 2.0

    def test_mixed_keys_average(self, schema):
        a = Instance(schema)
        b = Instance(schema)
        shared = ("mouse", "p2", "immune")
        a.apply(Insert("F", shared, 1))
        b.apply(Insert("F", shared, 2))
        a.apply(Insert("F", ("rat", "p1", "x"), 1))  # only at a
        # key1: 1 state; key2: 2 states -> mean 1.5
        assert state_ratio({1: a, 2: b}) == pytest.approx(1.5)

    def test_relation_filter(self, xref_schema):
        a = Instance(xref_schema)
        b = Instance(xref_schema)
        a.apply(Insert("F", ("rat", "p1", "x"), 1))
        b.apply(Insert("F", ("rat", "p1", "x"), 2))
        a.apply(Insert("Xref", ("rat", "p1", "GO", "a"), 1))
        assert state_ratio({1: a, 2: b}, relation="F") == 1.0
        assert state_ratio({1: a, 2: b}) > 1.0

    def test_divergence_by_key(self, schema):
        a = Instance(schema)
        b = Instance(schema)
        a.apply(Insert("F", ("rat", "p1", "x"), 1))
        b.apply(Insert("F", ("rat", "p1", "y"), 2))
        counts = divergence_by_key({1: a, 2: b})
        assert counts[("F", ("rat", "p1"))] == 2


class TestTimingAggregation:
    def test_empty_aggregate(self):
        agg = aggregate_timings([])
        assert agg.reconciliations == 0
        assert agg.mean_total_seconds == 0.0
        assert agg.mean_store_seconds == 0.0
        assert agg.mean_local_seconds == 0.0

    def test_aggregation_math(self):
        from repro.cdss.participant import ReconcileTiming

        timings = [
            ReconcileTiming(1, store_seconds=1.0, local_seconds=0.5, store_messages=10),
            ReconcileTiming(2, store_seconds=3.0, local_seconds=1.5, store_messages=30),
        ]
        agg = aggregate_timings(timings)
        assert agg.reconciliations == 2
        assert agg.total_store_seconds == 4.0
        assert agg.total_local_seconds == 2.0
        assert agg.total_messages == 40
        assert agg.total_seconds == 6.0
        assert agg.mean_store_seconds == 2.0
        assert agg.mean_local_seconds == 1.0
        assert agg.mean_total_seconds == 3.0
