"""Relational substrate: schemas, column-oriented tables, joins, and partitions.

This package is a small, self-contained relational engine used by every other
part of the library.  The marketplace datasets, the data shopper's local
instances, the sampled relations, and materialised join results are
instances of :class:`~repro.relational.table.Table`; a target graph's
evaluation holds its join as row vectors over its tables instead
(:class:`~repro.relational.joins.RowVectorJoin`).

The public surface is re-exported here:

``AttributeType``, ``Attribute``, ``Schema``
    Schema-level metadata (``schema.py``).
``Table``, ``ColumnEncoding``
    The column-oriented relation and its lazy dictionary encoding, which
    keeps a key's histogram and join row index (``table.py``).
``inner_join``
    The probe equi-join, of tables or of row-vector joins (``joins.py``).
``partition``, ``equivalence_classes``
    Partition / equivalence-class machinery used by FD-based quality
    measurement (``partitions.py``).
"""

from repro.relational.schema import Attribute, AttributeType, Schema
from repro.relational.table import ColumnEncoding, Table
from repro.relational.joins import inner_join
from repro.relational.partitions import equivalence_classes, partition, stripped_partition

__all__ = [
    "Attribute",
    "AttributeType",
    "Schema",
    "Table",
    "ColumnEncoding",
    "inner_join",
    "partition",
    "equivalence_classes",
    "stripped_partition",
]
