"""``TrustPolicy`` answers ``pri_i`` from an origin index plus a scan of
the rules that are not plain ``origin_is``; the answer must be the plain
scan over ``rules`` — the paper's max over matching rules — whatever the
mix of predicates, vetoes and late ``add_rule`` calls."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Delete, Insert, RelationSchema, Schema, make_transaction
from repro.policy import (
    AcceptanceRule,
    TrustPolicy,
    always,
    on_relation,
    origin_in,
    origin_is,
    policy_from_priorities,
)

SCHEMA = Schema(
    RelationSchema(name, ["organism", "protein", "function"], key=("organism", "protein"))
    for name in ("F", "G")
)
ORIGINS = st.integers(min_value=1, max_value=4)
PREDICATES = st.one_of(
    ORIGINS.map(origin_is),
    ORIGINS.map(origin_is),
    st.sets(ORIGINS, max_size=3).map(origin_in),
    st.sampled_from(["F", "G"]).map(on_relation),
    st.just(always()),
)
#: Priority 0 is the veto: a rule that matches and trusts nothing.
RULES = st.builds(AcceptanceRule, PREDICATES, st.integers(min_value=0, max_value=3))
#: A transaction's updates share its origin; relations and kinds vary.
TRANSACTIONS = st.builds(
    lambda origin, shapes: make_transaction(
        origin, 0, [kind(relation, ("rat", "prot1", "x"), origin) for kind, relation in shapes]
    ),
    ORIGINS,
    st.lists(
        st.tuples(st.sampled_from([Insert, Delete]), st.sampled_from(["F", "G"])),
        min_size=1,
        max_size=3,
    ),
)


def scan(policy: TrustPolicy, update) -> int:
    """``priority_of_update`` as the parent commit computed it."""
    return max(
        (rule.priority for rule in policy.rules if rule.matches(SCHEMA, update)),
        default=0,
    )


@settings(max_examples=200, deadline=None)
@given(
    declared=st.lists(RULES, max_size=6),
    late=st.lists(RULES, max_size=4),
    transactions=st.lists(TRANSACTIONS, min_size=1, max_size=4),
)
def test_indexed_priorities_equal_the_plain_scan(declared, late, transactions):
    policy = TrustPolicy(declared)
    for rule in [None, *late]:  # before any late rule, then after each
        if rule is not None:
            assert policy.add_rule(rule) is policy
        for transaction in transactions:
            expected = [scan(policy, update) for update in transaction]
            assert expected == [
                policy.priority_of_update(SCHEMA, update) for update in transaction
            ]
            assert policy.priority_of(SCHEMA, transaction) == (
                0 if min(expected) == 0 else max(expected)
            )
    assert policy.rules == tuple(declared + late)
    assert len(policy) == len(declared) + len(late)
    assert str(policy) == "{" + "; ".join(map(str, policy.rules)) + "}"


def test_origin_rules_are_never_scanned(monkeypatch):
    policy = policy_from_priorities([(origin, origin) for origin in range(1, 32)])
    policy.trust_participant(7, 40).trust_participant(7, 2)
    monkeypatch.setattr(
        AcceptanceRule, "matches", lambda *_: (_ for _ in ()).throw(AssertionError)
    )
    assert policy.priority_of_update(SCHEMA, Insert("F", ("a", "b", "c"), 7)) == 40
    assert policy.priority_of_update(SCHEMA, Insert("F", ("a", "b", "c"), 31)) == 31
    assert policy.priority_of_update(SCHEMA, Insert("F", ("a", "b", "c"), 32)) == 0
