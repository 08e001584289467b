"""Shared fixtures: the paper's running-example schema and helpers, and
the check that every armed fault injector fires."""

from __future__ import annotations

import pytest

from repro.confed import HookBus
from repro.model import (
    AttributeDef,
    ForeignKey,
    RelationSchema,
    Schema,
)
from repro.net.faults import FaultInjector

from tests.reference.mirror import register_deep_profile

# Before the Hypothesis plugin reads ``--hypothesis-profile``.
register_deep_profile()


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "faults_may_not_fire: the test's point is that an armed message fault never fires",
    )


@pytest.fixture(autouse=True)
def armed_faults_fire(request, monkeypatch):
    """Every :class:`FaultInjector` built during a test whose plan lists a
    message fault must have injected at least once by teardown: a plan
    that matches nothing pins nothing.  A test whose point is that nothing
    fires says so with ``@pytest.mark.faults_may_not_fire``."""
    built = []
    build = FaultInjector.__init__

    def recording(injector, plan, *args, **kwargs):
        build(injector, plan, *args, **kwargs)
        built.append((injector, plan))

    monkeypatch.setattr(FaultInjector, "__init__", recording)
    yield
    if request.node.get_closest_marker("faults_may_not_fire") is None:
        for injector, plan in built:
            if plan.messages:
                assert sum(injector.counts.values()) >= 1, f"no fault fired: {plan.messages}"


@pytest.fixture
def function_relation() -> RelationSchema:
    """The paper's F(organism, protein, function) with key (organism, protein)."""
    return RelationSchema(
        "F",
        [AttributeDef("organism"), AttributeDef("protein"), AttributeDef("function")],
        key=("organism", "protein"),
    )


@pytest.fixture
def schema(function_relation: RelationSchema) -> Schema:
    """A single-relation schema around the paper's F relation."""
    return Schema([function_relation])


@pytest.fixture
def xref_schema(function_relation: RelationSchema) -> Schema:
    """The evaluation-section schema: F plus a cross-reference table.

    The paper's workload inserts ~7.3 cross-reference tuples per new
    primary-key insertion; Xref references F's key.
    """
    xref = RelationSchema(
        "Xref",
        [
            AttributeDef("organism"),
            AttributeDef("protein"),
            AttributeDef("db"),
            AttributeDef("accession"),
        ],
        key=("organism", "protein", "db", "accession"),
    )
    return Schema(
        [function_relation, xref],
        foreign_keys=[
            ForeignKey("Xref", ("organism", "protein"), "F", ("organism", "protein"))
        ],
    )


def decision_stream(hooks: HookBus) -> list:
    """Collect ``hooks``' decision events.  The returned list grows by one
    ``(participant, recno, tid, decision)`` tuple per event, in emission
    order: the decision stream the equivalence, chaos and durability
    suites compare byte for byte (``from tests.conftest import
    decision_stream``)."""
    log = []
    hooks.on_decision(
        lambda **kw: log.append(
            (kw["participant"], kw["recno"], str(kw["tid"]), str(kw["decision"]))
        )
    )
    return log
