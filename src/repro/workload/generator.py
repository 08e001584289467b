"""Per-participant transaction streams for the evaluation workload.

The paper: "each transaction consists of a series of insertions or
replacements over the Function relation, where update values are chosen
according to a heavy-tailed Zipfian distribution with characteristic
s = 1.5 ...  When a new key is inserted, a secondary table of database
cross-references is updated to include a reference for the new key; on
average, 7.3 such tuples are inserted into the secondary table."

Conflicts arise because different participants insert the same
(organism, protein) key with different Zipf-sampled function values, or
replace the value of a key they share.  The key to insert is drawn from a
shared pool with its own Zipfian popularity, which is what makes overlap
(and therefore disagreement) common, as in real curated databases where
everyone works on the same popular proteins.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.instance.base import Instance
from repro.model.schema import AttributeDef, ForeignKey, RelationSchema, Schema
from repro.model.updates import Insert, Modify, Update
from repro.workload.vocabulary import Vocabulary
from repro.workload.zipf import ZipfSampler


def curated_schema() -> Schema:
    """The evaluation schema: F(organism, protein, function) plus Xref.

    F's key is (organism, protein); Xref references it and adds a database
    name and accession number, keyed by all four columns.
    """
    function = RelationSchema(
        "F",
        [
            AttributeDef("organism", str),
            AttributeDef("protein", str),
            AttributeDef("function", str),
        ],
        key=("organism", "protein"),
    )
    xref = RelationSchema(
        "Xref",
        [
            AttributeDef("organism", str),
            AttributeDef("protein", str),
            AttributeDef("db", str),
            AttributeDef("accession", str),
        ],
        key=("organism", "protein", "db", "accession"),
    )
    return Schema(
        [function, xref],
        foreign_keys=[
            ForeignKey(
                "Xref", ("organism", "protein"), "F", ("organism", "protein")
            )
        ],
    )


@dataclass
class WorkloadConfig:
    """Tunable parameters of the synthetic workload.

    * ``transaction_size`` — number of Function-relation updates per
      transaction (the x-axis of Figure 8);
    * ``insert_fraction`` — probability that an update inserts a new key
      rather than replacing an existing one's function value;
    * ``xref_mean`` — mean cross-reference tuples per new key (paper: 7.3);
    * ``zipf_s`` — Zipf characteristic for value *and* key popularity;
    * ``key_pool`` / ``functions`` — domain sizes (smaller pools mean more
      collisions between participants).
    """

    transaction_size: int = 1
    insert_fraction: float = 0.6
    xref_mean: float = 7.3
    zipf_s: float = 1.5
    organisms: int = 12
    proteins_per_organism: int = 400
    functions: int = 400
    seed: int = 42

    def __post_init__(self) -> None:
        if self.transaction_size < 1:
            raise WorkloadError("transaction_size must be >= 1")
        if not 0.0 <= self.insert_fraction <= 1.0:
            raise WorkloadError("insert_fraction must be within [0, 1]")
        if self.xref_mean < 0:
            raise WorkloadError("xref_mean must be non-negative")


class WorkloadGenerator:
    """Generates update sequences for one participant at a time.

    The generator is deterministic given its config seed and the sequence
    of calls; each participant gets an independent substream so adding a
    participant does not perturb the others' workloads.  The substream
    independence is also what makes the threaded epoch scheduler
    deterministic: concurrent edit phases draw from disjoint RNGs, so
    worker interleaving cannot change any participant's stream (only the
    lazily-created registry itself needs a lock).
    """

    def __init__(self, config: Optional[WorkloadConfig] = None) -> None:
        self.config = config or WorkloadConfig()
        self.vocabulary = Vocabulary(
            organisms=self.config.organisms,
            proteins_per_organism=self.config.proteins_per_organism,
            functions=self.config.functions,
        )
        self._streams: dict = {}
        self._rng_lock = threading.Lock()

    def _stream(
        self, participant: int
    ) -> Tuple[random.Random, ZipfSampler, ZipfSampler]:
        """The participant's RNG substream with the key and value
        samplers that draw from it, built once: a sampler depends on
        the config alone, and building one draws nothing."""
        if participant not in self._streams:
            with self._rng_lock:
                if participant not in self._streams:
                    rng = random.Random((self.config.seed, participant).__hash__())
                    zipf_s = self.config.zipf_s
                    self._streams[participant] = (
                        rng,
                        ZipfSampler(self.vocabulary.key_count(), zipf_s, rng),
                        ZipfSampler(len(self.vocabulary.functions), zipf_s, rng),
                    )
        return self._streams[participant]

    # ------------------------------------------------------------------

    def transaction_updates(
        self, participant: int, instance: Instance
    ) -> List[Update]:
        """One transaction's update list for ``participant``.

        Reads ``instance`` (the participant's current local state) to
        decide whether a sampled key is an insertion (key absent locally)
        or a replacement (key present), and to replace from the row value
        actually held — updates must apply cleanly to the local instance.
        """
        rng, key_sampler, value_sampler = self._stream(participant)
        updates: List[Update] = []
        touched: set = set()

        for _ in range(self.config.transaction_size):
            update = self._one_function_update(
                participant, instance, rng, key_sampler, value_sampler,
                updates, touched,
            )
            if update is None:
                continue
            updates.append(update)
            if isinstance(update, Insert):
                updates.extend(
                    self._xrefs_for(participant, update.row, rng)
                )
        return updates

    def _one_function_update(
        self,
        participant: int,
        instance: Instance,
        rng: random.Random,
        key_sampler: ZipfSampler,
        value_sampler: ZipfSampler,
        pending: Sequence[Update],
        touched: set,
    ) -> Optional[Update]:
        """Sample one insert-or-replace over F, avoiding intra-transaction
        key collisions (each transaction touches each key at most once)."""
        function = self.vocabulary.functions[value_sampler.sample()]
        want_insert = rng.random() < self.config.insert_fraction

        for _attempt in range(32):
            organism, protein = self.vocabulary.key((key_sampler.sample()))
            key = (organism, protein)
            if key in touched:
                continue
            current = instance.get("F", key)
            if want_insert and current is None:
                touched.add(key)
                return Insert("F", (organism, protein, function), participant)
            if not want_insert and current is not None:
                if current[2] == function:
                    continue  # replacement must change the value
                touched.add(key)
                return Modify(
                    "F",
                    current,
                    (organism, protein, function),
                    participant,
                )
        # Fall back to whatever operation the last sampled key admits.
        for _attempt in range(32):
            organism, protein = self.vocabulary.key(key_sampler.sample())
            key = (organism, protein)
            if key in touched:
                continue
            current = instance.get("F", key)
            touched.add(key)
            if current is None:
                return Insert("F", (organism, protein, function), participant)
            if current[2] != function:
                return Modify(
                    "F", current, (organism, protein, function), participant
                )
        return None  # pathologically saturated domain; skip this update

    def _xrefs_for(
        self, participant: int, function_row: Tuple, rng: random.Random
    ) -> List[Update]:
        """Cross-reference inserts for a newly inserted key.

        The count is sampled so its mean is ``xref_mean`` (paper: 7.3):
        a base of ``floor(mean)`` plus one with the fractional probability.
        """
        organism, protein, _function = function_row
        base = int(self.config.xref_mean)
        count = base + (1 if rng.random() < self.config.xref_mean - base else 0)
        xrefs: List[Update] = []
        for index in range(count):
            database = self.vocabulary.databases[
                rng.randrange(len(self.vocabulary.databases))
            ]
            accession = f"{database[:2].upper()}{rng.randrange(10**6):06d}-{index}"
            xrefs.append(
                Insert(
                    "Xref", (organism, protein, database, accession), participant
                )
            )
        return xrefs
