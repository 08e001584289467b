"""The five workloads: what each builds, at full and at smoke scale.

Sizes are for a 2-core shared box and a 20-second run: one schedule
(one *repetition*) takes 1.5 to 7 s, and a run repeats it in fresh child
processes, each on the next sub-seed, until the time is used.  The
shape ratios are the ones ``BENCHMARK.json`` argues from: the durable
batch is 4x its page cache, the DHT host crashes in the first third of
the epochs and recovers in the second (README, "What differs from the
issue", has the sizes that had to shrink).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.confed import ConfederationConfig
from repro.model.updates import Insert
from repro.net.faults import FaultPlan, HostCrash
from repro.workload.generator import WorkloadConfig
from repro.workload.vocabulary import Vocabulary

#: Page-cache entries of ``history-durable`` (full, smoke scale); one
#: epoch publishes 4x this.
DURABLE_CACHE = {False: 256, True: 16}


@dataclass(frozen=True)
class Sizes:
    """How long one schedule is: ``rounds`` of the serial/async schedule,
    or ``rounds`` epochs of ``batch`` transactions on the history pair."""

    rounds: int
    batch: int = 0


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``drive`` names the loop that executes it (see :mod:`.rep`);
    ``kernel_samples`` is how many reference-kernel passes are timed in
    each gap between schedule steps — more where steps are few and long.
    """

    name: str
    drive: str  # "serial" | "history" | "scheduler"
    full: Sizes
    smoke: Sizes
    kernel_samples: int
    store: str

    def sizes(self, smoke: bool) -> Sizes:
        """The full or the smoke-scale sizes."""
        return self.smoke if smoke else self.full


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("eval-conflict", "serial", Sizes(10), Sizes(2), 1, "memory"),
        Workload(
            "history-memory", "history", Sizes(64, 1024), Sizes(12, 64), 8, "memory"
        ),
        Workload(
            "history-durable", "history", Sizes(16, 1024), Sizes(3, 64), 24, "durable"
        ),
        Workload("dht-store", "serial", Sizes(8), Sizes(2), 2, "dht"),
        Workload("wan-async", "scheduler", Sizes(8), Sizes(2), 8, "memory"),
    )
}


def config_for(
    workload: Workload, sub_seed: int, smoke: bool, db_path: Optional[Path]
) -> ConfederationConfig:
    """The confederation one repetition of ``workload`` runs."""
    sizes = workload.sizes(smoke)
    name = workload.name
    if name == "eval-conflict":
        # transaction_size stays 1: at 2 to 4 updates per transaction the
        # engine raises FlattenError on most seeds (README, "Findings").
        return ConfederationConfig(
            store="memory",
            peers=tuple(range(1, 11)),
            workload=WorkloadConfig(transaction_size=1, seed=sub_seed),
            reconciliation_interval=4,
            rounds=sizes.rounds,
            final_reconcile=True,
        )
    if name == "history-memory":
        return ConfederationConfig(store="memory", peers=(1, 2))
    if name == "history-durable":
        return ConfederationConfig(
            store="durable",
            store_options={
                "path": str(db_path),
                "cache_size": DURABLE_CACHE[smoke],
            },
            peers=(1, 2),
        )
    if name == "dht-store":
        epochs = 16 * sizes.rounds
        return ConfederationConfig(
            store="dht",
            store_options={"hosts": 8, "replication_factor": 2},
            peers=tuple(range(1, 17)),
            workload=WorkloadConfig(transaction_size=1, seed=sub_seed),
            reconciliation_interval=4,
            rounds=sizes.rounds,
            final_reconcile=True,
            network_centric="store",
            faults=FaultPlan(
                seed=6,
                crashes=(
                    HostCrash(
                        "host:2",
                        at_epoch=epochs // 4,
                        recover_at_epoch=epochs * 5 // 8,
                    ),
                ),
            ),
        )
    if name == "wan-async":
        return ConfederationConfig(
            store="memory",
            store_options={
                "message_latency": 0.001 if smoke else 0.010,
                "real_latency": True,
            },
            peers=tuple(range(1, 33)),
            workload=WorkloadConfig(transaction_size=1, seed=sub_seed),
            reconciliation_interval=2,
            rounds=sizes.rounds,
            final_reconcile=True,
            schedule_mode="async",
        )
    raise KeyError(name)


def history_batches(sub_seed: int, sizes: Sizes) -> List[List[List[Insert]]]:
    """Per epoch, ``batch`` single-``Insert`` transactions on unique keys.

    Peer 1 publishes them all; the seed names the organism and draws the
    function values, so two seeds share no row.
    """
    rng = random.Random(sub_seed)
    functions = Vocabulary().functions
    organism = f"org{sub_seed}"
    batches = []
    serial = 0
    for _epoch in range(sizes.rounds):
        batch = []
        for _ in range(sizes.batch):
            row = (organism, f"P{serial:07d}", rng.choice(functions))
            batch.append([Insert("F", row, 1)])
            serial += 1
        batches.append(batch)
    return batches
