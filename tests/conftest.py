"""Shared fixtures: the paper's running-example schema and helpers."""

from __future__ import annotations

import pytest

from repro.confed import HookBus
from repro.model import (
    AttributeDef,
    ForeignKey,
    RelationSchema,
    Schema,
)


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
