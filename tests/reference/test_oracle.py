"""The reference oracle: what it may import, and the engine held to it.

``oracle.py`` is the paper's procedure over plain data.  These tests pin
that nothing in this directory imports the engine's code, that every
deviation it follows is documented, and that the engine decides as the
oracle does on generated schedules — every reconcile and resolve of every
participant, compared as it happens (``mirror.py``).  Under
``--hypothesis-profile=deep`` the generated ones run far longer.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confed import Confederation, ConfederationConfig
from repro.errors import ConstraintViolation
from repro.model import Delete, Insert, Modify
from repro.policy import TrustPolicy
from repro.workload import WorkloadConfig, WorkloadGenerator, curated_schema

from tests.reference.mirror import Mirror, examples
from tests.reference.oracle import DEVIATIONS

HERE = Path(__file__).resolve().parent
BANNED = ("repro.core", "repro.instance", "repro.model.flatten", "repro.store", "benchmarks")


def banned_imports(source: str):
    """The modules ``source`` imports (or imports a name of) that the
    oracle's directory may not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found += [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
    return sorted(
        {name for name in found for ban in BANNED if name == ban or name.startswith(ban + ".")}
    )


def test_nothing_here_imports_the_engine():
    sources = sorted(HERE.glob("*.py"))
    assert HERE / "oracle.py" in sources
    for path in sources:
        assert banned_imports(path.read_text()) == [], path.name


@pytest.mark.parametrize(
    "line",
    [
        "import repro.core",
        "import benchmarks.bench.ablations as ablations",
        "from repro.core.engine import Reconciler",
        "from repro.instance.base import Instance",
        "from repro.model import flatten",
        "from repro import store",
    ],
)
def test_the_import_check_sees_every_form(line):
    assert banned_imports(line)


def test_every_deviation_is_documented():
    architecture = (HERE.parent.parent / "docs" / "ARCHITECTURE.md").read_text()
    for name in DEVIATIONS:
        assert f"`{name}`" in architecture, name


def test_the_eight_peer_generated_log_decides_as_the_oracle():
    """Randomized edits on eight peers, ``transaction_size=2``, seed 1234:
    three rounds of three transactions each, then publish and reconcile."""
    confed = Confederation.from_config(
        ConfederationConfig(store="memory", peers=tuple(range(1, 9)))
    )
    mirror = Mirror(confed)
    generator = WorkloadGenerator(WorkloadConfig(transaction_size=2, seed=1234))
    for _round in range(3):
        for participant in confed.participants:
            for _ in range(3):
                updates = generator.transaction_updates(participant.id, participant.instance)
                if updates:
                    participant.execute(updates)
            participant.publish_and_reconcile()
    assert mirror.compared == 24


@given(seed=st.integers(0, 10_000), size=st.integers(1, 4))
@settings(max_examples=examples(6), deadline=None)
def test_evaluation_schedules_decide_as_the_oracle(seed, size):
    config = ConfederationConfig.evaluation(
        5,
        reconciliation_interval=3,
        rounds=3,
        final_reconcile=True,
        workload=WorkloadConfig(transaction_size=size, seed=seed),
    )
    with Confederation.from_config(config) as confed:
        mirror = Mirror(confed)
        confed.run()
    assert mirror.compared == 5 * 4


def _edit(rng, participant, keys, functions):
    """One to three updates on distinct keys: insertions, deletions and
    replacements, some moving their row to another key."""
    updates, used = [], set()
    for key in rng.sample(keys, rng.choice([1, 1, 2, 3])):
        current = participant.instance.get("F", key)
        function, used = rng.choice(functions), used | {key}
        if current is None:
            updates.append(Insert("F", (*key, function), participant.id))
        elif rng.random() < 0.25:
            updates.append(Delete("F", current, participant.id))
        elif rng.random() < 0.3:
            target = rng.choice(keys)
            if target not in used and participant.instance.get("F", target) is None:
                used.add(target)
                updates.append(Modify("F", current, (*target, function), participant.id))
        elif current[2] != function:
            updates.append(Modify("F", current, (*key, function), participant.id))
    return updates


@given(seed=st.integers(0, 100_000))
@settings(max_examples=examples(60), deadline=None)
def test_generated_schedules_decide_as_the_oracle(seed):
    """Chains of multi-update transactions on four peers at random
    priorities: publish and reconcile, resolve a random group, rebuild
    soft state — value-based antecedents under contention reach every
    deviation the oracle names."""
    rng = random.Random(seed)
    confed = Confederation.from_config(ConfederationConfig(), schema=curated_schema())
    for pid in (1, 2, 3, 4):
        policy = TrustPolicy()
        for other in (1, 2, 3, 4):
            if other != pid:
                policy.trust_participant(other, rng.choice([1, 1, 2, 3]))
        confed.add_participant(pid, policy)
    mirror = Mirror(confed)
    keys = [("rat", f"p{i}") for i in range(4)]
    functions = [f"fn{i}" for i in range(3)]
    for _step in range(80):
        action = rng.random()
        participant = confed.participant(rng.choice((1, 2, 3) if action < 0.5 else (1, 2, 3, 4)))
        if action < 0.5:
            updates = _edit(rng, participant, keys, functions)
            try:
                if updates:
                    mirror.execute(participant, updates)
            except ConstraintViolation:
                pass  # a row moved onto a key the edit went on to fill
        elif action > 0.92:
            mirror.rebuild_soft_state(participant)
        elif action > 0.8 and participant.open_conflicts():
            groups = participant.open_conflicts()
            group = groups[rng.randrange(len(groups))]
            option = rng.choice([None, *range(len(group.options))])
            mirror.resolve(participant, group.group_id, option)
        else:
            participant.publish_and_reconcile()
    assert mirror.compared
