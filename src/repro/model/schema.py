"""Relational schemas with key and foreign-key constraints.

The paper (Definition 1) assumes a shared schema ``Sigma`` of keyed
relations.  A :class:`RelationSchema` names its attributes and designates a
subset as the primary key; a :class:`Schema` collects relations plus any
foreign keys between them.  Integrity-constraint *checking* happens in
:mod:`repro.instance`; this module only describes the constraints.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.errors import SchemaError


@dataclass(frozen=True)
class AttributeDef:
    """A single named attribute, optionally constrained to a Python type.

    ``dtype`` of ``None`` means the attribute accepts any hashable value.
    """

    name: str
    dtype: Optional[type] = None


@dataclass(frozen=True)
class ForeignKey:
    """A referential constraint from one relation's attributes to another's.

    Every combination of ``source_attributes`` values appearing in
    ``source_relation`` must appear as the key of some row of
    ``target_relation`` (whose ``target_attributes`` must be its key).
    """

    source_relation: str
    source_attributes: Tuple[str, ...]
    target_relation: str
    target_attributes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.source_attributes) != len(self.target_attributes):
            raise SchemaError(
                "foreign key attribute lists have different lengths: "
                f"{self.source_attributes} vs {self.target_attributes}"
            )
        if not self.source_attributes:
            raise SchemaError("foreign key must reference at least one attribute")


class RelationSchema:
    """Schema of a single relation: ordered attributes plus a primary key.

    Rows of the relation are plain tuples whose positions correspond to
    ``attributes``.  The key is the attribute subset that identifies a row;
    the paper's conflict semantics are all phrased in terms of key values.
    """

    def __init__(
        self,
        name: str,
        attributes: Iterable[Union[AttributeDef, str]],
        key: Iterable[str],
    ) -> None:
        if not name:
            raise SchemaError("relation name must be non-empty")
        attr_defs = tuple(
            a if isinstance(a, AttributeDef) else AttributeDef(str(a))
            for a in attributes
        )
        if not attr_defs:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        names = [a.name for a in attr_defs]
        if len(set(names)) != len(names):
            raise SchemaError(f"relation {name!r} has duplicate attribute names")
        key_names = tuple(key)
        if not key_names:
            raise SchemaError(f"relation {name!r} must declare a key")
        missing = [k for k in key_names if k not in names]
        if missing:
            raise SchemaError(
                f"relation {name!r} key references unknown attributes: {missing}"
            )
        self.name = name
        self.attributes = attr_defs
        self.key = key_names
        self._positions: Dict[str, int] = {n: i for i, n in enumerate(names)}
        self._key_positions = tuple(self._positions[k] for k in key_names)
        self._arity = len(attr_defs)
        # What ``validate_row`` tests: the typed attributes, by position.
        self._typed = tuple((i, a) for i, a in enumerate(attr_defs) if a.dtype is not None)
        getter = operator.itemgetter(*self._key_positions)
        if len(self._key_positions) == 1:
            self._key_getter = lambda row: (getter(row),)
        else:
            self._key_getter = getter

    @property
    def arity(self) -> int:
        """Number of attributes in the relation."""
        return len(self.attributes)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        """Names of the attributes, in declaration order."""
        return tuple(a.name for a in self.attributes)

    def position_of(self, attribute: str) -> int:
        """Return the column index of ``attribute``.

        Raises :class:`SchemaError` for an unknown attribute name.
        """
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            ) from None

    def key_of(self, row: Tuple) -> Tuple:
        """Project ``row`` onto the key attributes.

        Only the row's arity is checked here — this is the hottest path in
        conflict detection.  Full validation (:meth:`validate_row`) happens
        where rows enter the system: instance application and workload
        generation.
        """
        if len(row) != self._arity:
            raise SchemaError(
                f"row for {self.name!r} has arity {len(row)}, "
                f"expected {self._arity}"
            )
        return self._key_getter(row)

    def validate_row(self, row: Tuple) -> None:
        """Raise :class:`SchemaError` unless ``row`` conforms to this schema."""
        if not isinstance(row, tuple):
            raise SchemaError(
                f"rows of {self.name!r} must be tuples, got {type(row).__name__}"
            )
        if len(row) != self._arity:
            raise SchemaError(
                f"row for {self.name!r} has arity {len(row)}, expected {self._arity}"
            )
        for position, attr in self._typed:
            if not isinstance(row[position], attr.dtype):
                raise SchemaError(
                    f"value {row[position]!r} not admissible for attribute "
                    f"{self.name}.{attr.name} (expected {attr.dtype})"
                )

    def value_of(self, row: Tuple, attribute: str) -> object:
        """Return the value of ``attribute`` in ``row``."""
        return row[self.position_of(attribute)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        attrs = ", ".join(a.name for a in self.attributes)
        return f"RelationSchema({self.name}({attrs}), key={self.key})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attributes, self.key))


class Schema:
    """A database schema: a set of relations plus foreign-key constraints."""

    def __init__(
        self,
        relations: Iterable[RelationSchema],
        foreign_keys: Iterable[ForeignKey] = (),
    ) -> None:
        rels = list(relations)
        names = [r.name for r in rels]
        if len(set(names)) != len(names):
            raise SchemaError("schema contains duplicate relation names")
        self._relations: Dict[str, RelationSchema] = {r.name: r for r in rels}
        self.foreign_keys = tuple(foreign_keys)
        # Every constraint check asks for a relation's foreign keys, so
        # they are grouped once, here.
        self._fks_from: Dict[str, Tuple[ForeignKey, ...]] = {}
        self._fks_into: Dict[str, Tuple[ForeignKey, ...]] = {}
        for fk in self.foreign_keys:
            self._validate_foreign_key(fk)
            source, target = fk.source_relation, fk.target_relation
            self._fks_from[source] = self._fks_from.get(source, ()) + (fk,)
            self._fks_into[target] = self._fks_into.get(target, ()) + (fk,)

    def _validate_foreign_key(self, fk: ForeignKey) -> None:
        if fk.source_relation not in self._relations:
            raise SchemaError(
                f"foreign key references unknown relation {fk.source_relation!r}"
            )
        if fk.target_relation not in self._relations:
            raise SchemaError(
                f"foreign key references unknown relation {fk.target_relation!r}"
            )
        source = self._relations[fk.source_relation]
        target = self._relations[fk.target_relation]
        for attr in fk.source_attributes:
            source.position_of(attr)
        for attr in fk.target_attributes:
            target.position_of(attr)
        if tuple(fk.target_attributes) != target.key:
            raise SchemaError(
                "foreign keys must reference the full key of the target "
                f"relation; {fk.target_attributes} is not the key of "
                f"{target.name!r} ({target.key})"
            )

    @property
    def relation_names(self) -> Tuple[str, ...]:
        """Names of all relations in the schema."""
        return tuple(self._relations)

    def relation(self, name: str) -> RelationSchema:
        """Return the schema of relation ``name``.

        Raises :class:`SchemaError` for an unknown relation.
        """
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"schema has no relation named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self):
        return iter(self._relations.values())

    def foreign_keys_from(self, relation: str) -> Tuple[ForeignKey, ...]:
        """Foreign keys whose source is ``relation``."""
        return self._fks_from.get(relation, ())

    def foreign_keys_into(self, relation: str) -> Tuple[ForeignKey, ...]:
        """Foreign keys whose target is ``relation``."""
        return self._fks_into.get(relation, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schema({', '.join(self._relations)})"
