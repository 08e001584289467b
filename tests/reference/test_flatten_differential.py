"""The engine's ``flatten_once`` against ``Oracle.flatten``, written apart
from it: the same net updates — as a multiset of ``(relation, read row,
written row)`` — and the same touched keys, and ``FlattenError`` exactly
where the oracle finds the sequence ``Unflattenable``.

Inputs are valid sequences, arbitrary (mostly inconsistent) ones, one
update object repeated, and two deletions of one row value — what
value-based antecedents hand ``flatten`` under the deviation
``reconsumes_emptied_keys``.  This is the one file here that imports a
name of the engine's, the one it tests (``test_oracle.py`` pins that).
Under ``--hypothesis-profile=deep`` it runs far longer.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlattenError
from repro.model import Delete
from repro.model.flatten import flatten_once

from tests.property.strategies import PROP_SCHEMA, single_updates, valid_update_sequences
from tests.reference.mirror import examples
from tests.reference.oracle import Oracle, Unflattenable, raw

_ROWS = st.tuples(st.integers(0, 5), st.integers(0, 4))


@st.composite
def sequences(draw):
    """A valid or an arbitrary sequence, perhaps with one of its update
    objects repeated and two deletions of one row value spliced in."""
    if draw(st.booleans()):
        _initial, updates = draw(valid_update_sequences(max_length=10))
    else:
        updates = draw(st.lists(single_updates(), max_size=8))
    updates = list(updates)

    def splice(update):
        updates.insert(draw(st.integers(0, len(updates))), update)

    if updates and draw(st.booleans()):
        splice(draw(st.sampled_from(updates)))
    if draw(st.booleans()):
        deletion = Delete("R", draw(_ROWS), 1)
        splice(deletion)
        splice(deletion if draw(st.booleans()) else Delete("R", deletion.row, 2))
    return updates


@given(sequences())
@settings(max_examples=examples(300))
def test_flatten_once_nets_what_the_oracle_nets(updates):
    oracle = Oracle(PROP_SCHEMA)
    try:
        expected = oracle.flatten(updates)
    except Unflattenable:
        with pytest.raises(FlattenError):
            flatten_once(PROP_SCHEMA, updates)
        return
    result = flatten_once(PROP_SCHEMA, updates)
    assert Counter(raw(result.operations)) == Counter(expected)
    assert result.keys_touched == set().union(*map(oracle.keys, raw(updates)))
    assert len({id(update) for update in result.operations}) == len(result.operations)
