"""Tests for the synthetic SWISS-PROT workload generator."""

from __future__ import annotations

import random

import pytest

from repro.errors import WorkloadError
from repro.instance import Instance
from repro.model import Insert, Modify
from repro.workload import (
    Vocabulary,
    WorkloadConfig,
    WorkloadGenerator,
    ZipfSampler,
    curated_schema,
)


class TestZipfSampler:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(0)
        with pytest.raises(WorkloadError):
            ZipfSampler(10, s=0)

    def test_samples_in_range(self):
        sampler = ZipfSampler(50, 1.5, random.Random(1))
        for _ in range(1000):
            assert 0 <= sampler.sample() < 50

    def test_heavy_tail_rank_ordering(self):
        # Rank 0 must be sampled far more often than rank 10.
        sampler = ZipfSampler(100, 1.5, random.Random(2))
        counts = [0] * 100
        for _ in range(20000):
            counts[sampler.sample()] += 1
        assert counts[0] > counts[10] > 0

    def test_probability_sums_to_one(self):
        sampler = ZipfSampler(20, 1.5)
        total = sum(sampler.probability(i) for i in range(20))
        assert total == pytest.approx(1.0)

    def test_probability_matches_zipf_law(self):
        sampler = ZipfSampler(100, 2.0)
        # p(rank 1) / p(rank 2) = 2^s = 4.
        ratio = sampler.probability(0) / sampler.probability(1)
        assert ratio == pytest.approx(4.0, rel=1e-9)

    def test_probability_out_of_range(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(5).probability(5)

    def test_deterministic_given_seed(self):
        a = ZipfSampler(50, 1.5, random.Random(7))
        b = ZipfSampler(50, 1.5, random.Random(7))
        assert [a.sample() for _ in range(100)] == [
            b.sample() for _ in range(100)
        ]

    def test_deterministic_without_an_rng(self):
        # The fallback stream is seeded too: an OS-seeded one would make
        # two identically built samplers diverge from run to run.
        a, b = ZipfSampler(50, 1.5), ZipfSampler(50, 1.5)
        assert [a.sample() for _ in range(100)] == [b.sample() for _ in range(100)]


class TestVocabulary:
    def test_default_sizes(self):
        vocab = Vocabulary()
        assert len(vocab.organisms) == 12
        assert len(vocab.functions) == 400
        assert vocab.key_count() == 12 * 400

    def test_key_enumeration_unique(self):
        vocab = Vocabulary(organisms=3, proteins_per_organism=5)
        keys = {vocab.key(i) for i in range(vocab.key_count())}
        assert len(keys) == vocab.key_count()

    def test_key_out_of_range(self):
        vocab = Vocabulary(organisms=2, proteins_per_organism=2)
        with pytest.raises(WorkloadError):
            vocab.key(4)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(WorkloadError):
            Vocabulary(organisms=0)
        with pytest.raises(WorkloadError):
            Vocabulary(functions=0)
        with pytest.raises(WorkloadError):
            Vocabulary(proteins_per_organism=0)

    def test_protein_names_are_swissprot_style(self):
        assert Vocabulary().protein(7) == "P00007"


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(transaction_size=0)
        with pytest.raises(WorkloadError):
            WorkloadConfig(insert_fraction=1.5)
        with pytest.raises(WorkloadError):
            WorkloadConfig(xref_mean=-1)


class TestWorkloadGenerator:
    def test_updates_apply_cleanly_to_local_instance(self):
        schema = curated_schema()
        generator = WorkloadGenerator(WorkloadConfig(transaction_size=3))
        instance = Instance(schema)
        for _ in range(50):
            updates = generator.transaction_updates(1, instance)
            instance.apply_all(updates)  # must never raise

    def test_transaction_size_respected(self):
        schema = curated_schema()
        generator = WorkloadGenerator(
            WorkloadConfig(transaction_size=4, xref_mean=0)
        )
        instance = Instance(schema)
        updates = generator.transaction_updates(1, instance)
        f_updates = [u for u in updates if u.relation == "F"]
        assert len(f_updates) == 4

    def test_xrefs_accompany_inserts(self):
        schema = curated_schema()
        generator = WorkloadGenerator(
            WorkloadConfig(transaction_size=1, insert_fraction=1.0)
        )
        instance = Instance(schema)
        updates = generator.transaction_updates(1, instance)
        assert isinstance(updates[0], Insert) and updates[0].relation == "F"
        xrefs = [u for u in updates if u.relation == "Xref"]
        assert len(xrefs) >= 7  # mean 7.3 -> 7 or 8

    def test_xref_mean_obeyed(self):
        schema = curated_schema()
        generator = WorkloadGenerator(
            WorkloadConfig(transaction_size=1, insert_fraction=1.0)
        )
        instance = Instance(schema)
        counts = []
        for _ in range(120):
            updates = generator.transaction_updates(2, instance)
            instance.apply_all(updates)
            counts.append(len([u for u in updates if u.relation == "Xref"]))
        mean = sum(counts) / len(counts)
        assert 6.8 <= mean <= 7.8  # 7.3 +/- sampling noise

    def test_replacements_read_current_local_row(self):
        schema = curated_schema()
        generator = WorkloadGenerator(
            WorkloadConfig(transaction_size=1, insert_fraction=0.0)
        )
        instance = Instance(schema)
        # Seed the instance so replacements are possible.
        seeder = WorkloadGenerator(
            WorkloadConfig(transaction_size=5, insert_fraction=1.0, xref_mean=0)
        )
        instance.apply_all(seeder.transaction_updates(1, instance))
        updates = generator.transaction_updates(1, instance)
        assert len(updates) == 1
        update = updates[0]
        assert isinstance(update, Modify)
        key = schema.relation("F").key_of(update.old_row)
        assert instance.get("F", key) == update.old_row

    def test_streams_are_deterministic_per_seed(self):
        schema = curated_schema()

        def stream(seed):
            generator = WorkloadGenerator(WorkloadConfig(seed=seed))
            instance = Instance(schema)
            out = []
            for _ in range(20):
                updates = generator.transaction_updates(1, instance)
                instance.apply_all(updates)
                out.extend(map(str, updates))
            return out

        assert stream(5) == stream(5)
        assert stream(5) != stream(6)

    def test_participants_get_independent_streams(self):
        schema = curated_schema()
        generator = WorkloadGenerator(WorkloadConfig())
        inst1 = Instance(schema)
        inst2 = Instance(schema)
        ups1 = generator.transaction_updates(1, inst1)
        ups2 = generator.transaction_updates(2, inst2)
        # Same seed, different participants: almost surely different picks.
        assert [str(u) for u in ups1] != [str(u) for u in ups2]

    def test_collisions_between_participants_happen(self):
        # The whole point of the workload: peers touch overlapping keys.
        schema = curated_schema()
        generator = WorkloadGenerator(
            WorkloadConfig(transaction_size=1, insert_fraction=1.0, xref_mean=0)
        )
        keys_by_peer = {}
        for peer in (1, 2):
            instance = Instance(schema)
            keys = set()
            for _ in range(60):
                updates = generator.transaction_updates(peer, instance)
                instance.apply_all(updates)
                for update in updates:
                    keys.add(schema.relation("F").key_of(update.row))
            keys_by_peer[peer] = keys
        assert keys_by_peer[1] & keys_by_peer[2]
