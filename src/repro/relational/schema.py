"""Schema metadata for relational instances.

A :class:`Schema` is an ordered collection of named, typed attributes.  The
marketplace exposes schemas (but not data) for free, so the schema objects are
deliberately lightweight and hashable: the instance layer of the join graph is
built purely from schemas.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, KeysView, Mapping, Sequence

from repro.exceptions import SchemaError, UnknownAttributeError


class AttributeType(str, Enum):
    """Type of an attribute, which decides the correlation estimator used.

    The paper's correlation measure (Definition 2.5) switches between Shannon
    entropy for categorical attributes and cumulative entropy for numerical
    attributes, so the distinction is carried in the schema.
    """

    CATEGORICAL = "categorical"
    NUMERICAL = "numerical"

    @classmethod
    def infer(cls, values: Iterable[object]) -> "AttributeType":
        """Infer a type from raw values: all-numeric (ignoring ``None``) is numerical."""
        saw_value = False
        for value in values:
            if value is None:
                continue
            saw_value = True
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return cls.CATEGORICAL
        return cls.NUMERICAL if saw_value else cls.CATEGORICAL


@dataclass(frozen=True)
class Attribute:
    """A named, typed attribute of a relational instance."""

    name: str
    type: AttributeType = AttributeType.CATEGORICAL

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be a non-empty string")

    def is_numerical(self) -> bool:
        return self.type is AttributeType.NUMERICAL

    def is_categorical(self) -> bool:
        return self.type is AttributeType.CATEGORICAL

    def renamed(self, new_name: str) -> "Attribute":
        """Return a copy of this attribute with a different name."""
        return Attribute(new_name, self.type)


class Schema:
    """An ordered, duplicate-free collection of :class:`Attribute` objects."""

    __slots__ = ("_attributes", "_index")

    def __init__(self, attributes: Iterable[Attribute | str]) -> None:
        normalized: list[Attribute] = []
        for attribute in attributes:
            if isinstance(attribute, str):
                attribute = Attribute(attribute)
            elif not isinstance(attribute, Attribute):
                raise SchemaError(
                    f"schema entries must be Attribute or str, got {type(attribute).__name__}"
                )
            normalized.append(attribute)
        names = [attribute.name for attribute in normalized]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise SchemaError(f"duplicate attribute names in schema: {duplicates}")
        self._attributes: tuple[Attribute, ...] = tuple(normalized)
        self._index: dict[str, int] = {attr.name: i for i, attr in enumerate(self._attributes)}

    # ------------------------------------------------------------------ dunder
    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Attribute:
        try:
            return self._attributes[self._index[name]]
        except KeyError:
            raise UnknownAttributeError(name, self.names) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        # dancelint: disable=DET102 -- backs __eq__ for in-process dict/set use
        # only; persisted or cross-process schema identity goes through
        # storage.serialize.table_fingerprint (blake2b), never through this.
        return hash(self._attributes)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a.name}:{a.type.value[:3]}" for a in self._attributes)
        return f"Schema({inner})"

    # ------------------------------------------------------------------ access
    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        # ``_index`` is built in attribute order and never changes afterwards.
        return tuple(self._index)

    @property
    def name_set(self) -> KeysView[str]:
        """Attribute names as a set-like view (no copy), for subset tests."""
        return self._index.keys()

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    def index_of(self, name: str) -> int:
        """Positional index of ``name``; raises :class:`UnknownAttributeError`."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAttributeError(name, self.names) from None

    def type_of(self, name: str) -> AttributeType:
        return self[name].type

    def numerical_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._attributes if a.is_numerical())

    def categorical_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._attributes if a.is_categorical())

    # ------------------------------------------------------------- set algebra
    def project(self, names: Sequence[str]) -> "Schema":
        """Schema restricted to ``names`` (kept in the order given by ``names``)."""
        return Schema([self[name] for name in names])

    def common_attributes(self, other: "Schema") -> tuple[str, ...]:
        """Names present in both schemas, in this schema's order."""
        return tuple(name for name in self.names if name in other)

    def union(self, other: "Schema") -> "Schema":
        """This schema followed by the attributes of ``other`` not already present."""
        extra = [attr for attr in other if attr.name not in self]
        return Schema(list(self._attributes) + extra)

    def rename(self, mapping: Mapping[str, str]) -> "Schema":
        """Rename attributes according to ``mapping`` (missing names are kept)."""
        for old in mapping:
            if old not in self:
                raise UnknownAttributeError(old, self.names)
        return Schema(
            [attr.renamed(mapping.get(attr.name, attr.name)) for attr in self._attributes]
        )

    def validate_subset(self, names: Iterable[str]) -> tuple[str, ...]:
        """Check every name exists and return them as a tuple (stable order of input)."""
        result = []
        for name in names:
            if name not in self:
                raise UnknownAttributeError(name, self.names)
            result.append(name)
        return tuple(result)
