"""Acceptance rules and trust policies (Definition 1 and Section 4).

A :class:`TrustPolicy` is participant ``i``'s mapping ``A(p_i)``: a list of
:class:`AcceptanceRule` pairs ``(theta, v)``.  Its central operation is
:meth:`TrustPolicy.priority_of`, the paper's ``pri_i(X)``:

* 0 if any update in the transaction is untrusted — i.e. no rule with
  positive priority matches it;
* otherwise the maximum priority of any rule matching any update in the
  transaction.

Priorities must be positive integers; priority 0 means "untrusted" and is
expressed by *not* matching, or by an explicit rule with priority 0 which
acts as a veto for matching updates (they are then trusted only if some
other rule matches them — the definition takes a max, so a 0-rule alone
never trusts anything).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import PolicyError
from repro.model.schema import Schema
from repro.model.transactions import Transaction
from repro.model.updates import Update
from repro.policy.predicates import Predicate, always, origin_is


@dataclass(frozen=True)
class AcceptanceRule:
    """One ``(theta, v)`` pair: updates matching ``predicate`` get
    priority ``priority``."""

    predicate: Predicate
    priority: int

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise PolicyError(
                f"acceptance priority must be non-negative, got {self.priority}"
            )

    def matches(self, schema: Schema, update: Update) -> bool:
        """True if this rule's predicate matches ``update``."""
        return bool(self.predicate(schema, update))

    def __str__(self) -> str:
        return f"({self.predicate}, {self.priority})"


class TrustPolicy:
    """The full acceptance-rule set ``A(p_i)`` of one participant.

    ``pri_i`` is a max over matching rules, so the rules that only name
    an origin (``origin_is`` — one per arc of the paper's Figure 1) are
    kept as an ``{origin: highest priority}`` index beside the declared
    list: an update costs one lookup plus a scan of the *other* rules,
    however many participants are trusted.
    """

    def __init__(self, rules: Iterable[AcceptanceRule] = ()) -> None:
        self._rules: List[AcceptanceRule] = []
        self._by_origin: Dict[int, int] = {}
        self._scanned: List[AcceptanceRule] = []
        for rule in rules:
            self.add_rule(rule)

    @property
    def rules(self) -> Tuple[AcceptanceRule, ...]:
        """The rules of this policy, in declaration order."""
        return tuple(self._rules)

    def add_rule(self, rule: AcceptanceRule) -> "TrustPolicy":
        """Append a rule; returns self for chaining."""
        self._rules.append(rule)
        if type(rule.predicate) is origin_is:
            origin = rule.predicate.participant
            self._by_origin[origin] = max(self._by_origin.get(origin, 0), rule.priority)
        else:
            self._scanned.append(rule)
        return self

    def trust(self, predicate: Predicate, priority: int) -> "TrustPolicy":
        """Shorthand for ``add_rule(AcceptanceRule(predicate, priority))``."""
        return self.add_rule(AcceptanceRule(predicate, priority))

    def trust_participant(self, participant: int, priority: int) -> "TrustPolicy":
        """Trust all updates originated by ``participant`` at ``priority``.

        This is the arc-label form used in the paper's Figure 1
        ("updates from p2 get priority 1").
        """
        return self.trust(origin_is(participant), priority)

    def trust_all(self, priority: int) -> "TrustPolicy":
        """Trust every update at ``priority`` (the evaluation's setting)."""
        return self.trust(always(), priority)

    # ------------------------------------------------------------------
    # The paper's pri_i

    def priority_of_update(self, schema: Schema, update: Update) -> int:
        """Max priority of any matching rule; 0 if none match positively."""
        best = self._by_origin.get(update.origin, 0)
        for rule in self._scanned:
            if rule.priority > best and rule.matches(schema, update):
                best = rule.priority
        return best

    def priority_of(self, schema: Schema, transaction: Transaction) -> int:
        """The paper's ``pri_i(X)``.

        Returns 0 if *any* update in the transaction is untrusted,
        otherwise the maximum priority any rule assigns to any update.
        """
        priorities = [
            self.priority_of_update(schema, update) for update in transaction
        ]
        if not priorities or min(priorities) == 0:
            return 0
        return max(priorities)

    def trusts(self, schema: Schema, transaction: Transaction) -> bool:
        """True if the transaction is fully trusted (priority > 0)."""
        return self.priority_of(schema, transaction) > 0

    def __len__(self) -> int:
        return len(self._rules)

    def __str__(self) -> str:
        return "{" + "; ".join(str(r) for r in self._rules) + "}"


def policy_from_priorities(priorities: Sequence[Tuple[int, int]]) -> TrustPolicy:
    """Build a policy from ``(participant, priority)`` pairs.

    Convenience used throughout the examples to transcribe figures like
    Figure 1, where each arc is "updates from p_j get priority v".
    """
    policy = TrustPolicy()
    for participant, priority in priorities:
        policy.trust_participant(participant, priority)
    return policy
