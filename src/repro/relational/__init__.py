"""Relational substrate: schemas, column-oriented tables, joins, and partitions.

This package is a small, self-contained relational engine used by every other
part of the library.  The marketplace datasets, the data shopper's local
instances, the sampled relations, and all intermediate join results are
instances of :class:`~repro.relational.table.Table`.

The public surface is re-exported here:

``AttributeType``, ``Attribute``, ``Schema``
    Schema-level metadata (``schema.py``).
``Table``, ``ColumnEncoding``
    The column-oriented relation and its lazy dictionary encoding
    (``table.py``).
``inner_join``, ``full_outer_join``, ``join_path``
    Equi-join operators and multi-way join evaluation (``joins.py``).
``partition``, ``equivalence_classes``
    Partition / equivalence-class machinery used by FD-based quality
    measurement (``partitions.py``).
"""

from repro.relational.schema import Attribute, AttributeType, Schema
from repro.relational.table import ColumnEncoding, Table
from repro.relational.joins import full_outer_join, inner_join, join_path
from repro.relational.partitions import equivalence_classes, partition, stripped_partition

__all__ = [
    "Attribute",
    "AttributeType",
    "Schema",
    "Table",
    "ColumnEncoding",
    "inner_join",
    "full_outer_join",
    "join_path",
    "partition",
    "equivalence_classes",
    "stripped_partition",
]
