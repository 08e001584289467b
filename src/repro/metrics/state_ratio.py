"""The paper's *state ratio* metric (Section 6).

"The average number of values in all participants' states for a key
(including lack of a value).  This measure ranges from one (all the peers
have exactly the same state) to the number of peers (there is no overlap
at all between the peers' states).  Since a lower ratio indicates more
shared data, we consider a smaller value ... to indicate higher quality
sharing."

For every qualified key held by at least one participant, we count the
number of distinct states across participants, where "no value" is itself
a state, and average over keys.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.instance.base import Instance
from repro.model.tuples import QualifiedKey


def state_ratio(
    instances: Dict[int, Instance], relation: Optional[str] = None
) -> float:
    """Average number of distinct per-key states across participants.

    ``relation`` restricts the metric to one relation (the paper computes
    it over the primary Function relation of its workload); by default all
    relations contribute.  Returns 1.0 for an empty system (perfect,
    vacuous agreement).
    """
    counts = divergence_by_key(instances, relation)
    if not counts:
        return 1.0
    return sum(counts.values()) / len(counts)


def divergence_by_key(
    instances: Dict[int, Instance], relation: Optional[str] = None
) -> Dict[QualifiedKey, int]:
    """Per-key distinct-state counts (the distribution behind the ratio)."""
    keys: Set[QualifiedKey] = set()
    for instance in instances.values():
        for key in instance.all_keys():
            if relation is None or key[0] == relation:
                keys.add(key)
    result: Dict[QualifiedKey, int] = {}
    for rel_name, key in keys:
        states = {
            instance.get(rel_name, key) for instance in instances.values()
        }
        result[(rel_name, key)] = len(states)
    return result
