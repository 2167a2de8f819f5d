"""Equivalence classes and partitions (Definition 2.1 of the paper).

Given a table ``D`` and an attribute set ``X``, the *partition* ``pi_X`` groups
row indices by their value combination on ``X``.  Partitions are the work-horse
of FD/AFD checking (TANE-style) and of the paper's data-quality measure: the
quality of an instance w.r.t. an FD ``X -> Y`` is computed by comparing the
partition on ``X`` with the partition on ``X ∪ Y``.

The g3 error, AFD discovery and the correct-record sets of the quality
measure never build those partitions: they work on the tables' cached
dictionary codes instead (:func:`group_keys`, :func:`correct_from_keys`,
:func:`correct_row_mask`), where two rows share a key exactly when they agree
on every attribute.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from operator import eq
from typing import Sequence

from repro.relational.table import Table

#: A row-aligned int key per row and how many distinct keys there are.
RowKeys = tuple[list[int], int]


def partition(table: Table, attributes: Sequence[str]) -> dict[tuple, list[int]]:
    """Partition of ``table`` on ``attributes``: value-combination -> row indices.

    The returned mapping is the paper's ``pi_X``: each entry is one equivalence
    class, keyed by the (tuple of) attribute values shared by its rows.
    """
    validated = table.schema.validate_subset(attributes)
    groups: dict[tuple, list[int]] = {}
    for index, key in enumerate(table.key_tuples(validated)):
        groups.setdefault(key, []).append(index)
    return groups


def equivalence_classes(table: Table, attributes: Sequence[str]) -> list[list[int]]:
    """The equivalence classes of ``pi_X`` as lists of row indices."""
    return list(partition(table, attributes).values())


def stripped_partition(table: Table, attributes: Sequence[str]) -> list[list[int]]:
    """Equivalence classes with singletons removed (TANE's stripped partition).

    Singleton classes can never witness an FD violation, so FD discovery only
    needs the non-singleton classes.
    """
    return [eclass for eclass in equivalence_classes(table, attributes) if len(eclass) > 1]


def distinct_rows(table: Table, names: Sequence[str]) -> tuple[list[int], Table]:
    """``pi_names`` of ``table`` with one row per class: its distinct rows on ``names``.

    Returns each row's group, numbered in first-occurrence order, and a
    table whose row ``g`` holds group ``g``'s values on ``names`` (those of
    its first row).  Rows share a group exactly when they agree on every
    attribute under the equality of the table's dictionary encodings
    (:func:`column_codes`), so the groups' own encodings code them as the
    rows' encodings would.
    """
    names = table.schema.validate_subset(names)
    encoding = table.encoded_key(names)
    columns = list(zip(*encoding.values)) or [()] * len(names)
    groups = Table._from_columns(
        table.name,
        table.schema.project(names),
        {name: list(values) for name, values in zip(names, columns)},
        encoding.num_codes,
    )
    return encoding.codes, groups


def column_codes(table: Table, name: str) -> RowKeys:
    """One column's dictionary codes as a python list, and its number of values.

    The codes come from the table's cached encoding (:meth:`Table.encoded`),
    whose dict lookups give the same equality as grouping the raw values:
    ``None`` is a value, ``1 == 1.0 == True`` share a code, and distinct NaN
    objects stay apart.
    """
    encoding = table.encoded(name)
    return encoding.codes, encoding.num_codes


def group_keys(columns: Sequence[RowKeys]) -> RowKeys:
    """One int key per row for the value combination of ``columns``.

    ``columns`` are :func:`column_codes` results (at least one).  The codes
    combine in mixed radix over each column's ``num_codes``, so two rows get
    the same key exactly when they agree on every column.  Returns the keys
    and their distinct count; a single column is returned as it is.
    """
    keys, distinct = columns[0]
    for codes, radix in columns[1:]:
        keys = [key * radix + code for key, code in zip(keys, codes)]
    if len(columns) > 1:
        distinct = len(set(keys))
    return keys, distinct


def correct_from_keys(lhs: RowKeys, rhs: RowKeys) -> int:
    """``|C(D, X -> Y)|`` from the row keys of ``X`` and of ``Y``.

    Each ``pi_X`` class counts the rows of its largest ``pi_{X ∪ Y}``
    sub-class.  Two cases need no counting: when every row has its own ``X``
    key all rows are correct, and when every row has its own ``Y`` key each
    ``X`` class keeps one row.  When each ``X`` class holds one ``Y`` value
    (an exact FD) all rows are correct too.
    """
    (lhs_keys, lhs_distinct), (rhs_keys, rhs_distinct) = lhs, rhs
    rows = len(lhs_keys)
    if lhs_distinct == rows:
        return rows
    if rhs_distinct == rows:
        return lhs_distinct
    counts = Counter(zip(lhs_keys, rhs_keys))
    if len(counts) == lhs_distinct:
        return rows
    largest: dict[int, int] = {}
    for (lhs_key, _), size in counts.items():
        if size > largest.get(lhs_key, 0):
            largest[lhs_key] = size
    return sum(largest.values())


def correct_row_count(table: Table, lhs: Sequence[str], rhs: Sequence[str]) -> int:
    """``|C(table, lhs -> rhs)|``, the rows the paper's quality counts as correct.

    For every equivalence class of ``pi_lhs`` only the largest sub-class of
    ``pi_{lhs ∪ rhs}`` is correct; RHS attributes that are also on the LHS
    are dropped, and an RHS left empty keeps every row.
    """
    lhs = table.schema.validate_subset(lhs)
    rhs = table.schema.validate_subset([a for a in rhs if a not in lhs])
    rows = len(table)
    if not rhs or rows == 0:
        return rows
    lhs_keys = group_keys([column_codes(table, a) for a in lhs]) if lhs else ([0] * rows, 1)
    return correct_from_keys(lhs_keys, group_keys([column_codes(table, a) for a in rhs]))


def partition_error(table: Table, lhs: Sequence[str], rhs: Sequence[str]) -> float:
    """The g3-style error of the FD ``lhs -> rhs`` on ``table``.

    This is ``1 - Q(D, lhs -> rhs)`` under the paper's quality definition
    (see :func:`correct_row_count`); an empty table has no error.
    """
    if len(table) == 0:
        return 0.0
    return 1.0 - correct_row_count(table, lhs, rhs) / len(table)


def correct_row_mask(table: Table, lhs: Sequence[str], rhs: Sequence[str]) -> bytes:
    """One byte per row, 1 for the rows of ``C(D, lhs -> rhs)`` and 0 otherwise.

    For every equivalence class ``eq_x`` of ``pi_lhs`` the rows of the
    *largest* class of ``pi_{lhs ∪ rhs}`` contained in ``eq_x`` are correct;
    ties go to the sub-class whose first row comes first, which is
    deterministic for a given row order.  Classes are grouped on the
    dictionary codes (:func:`group_keys`), RHS attributes that are also on
    the LHS are dropped, and an RHS left empty keeps every row.
    """
    lhs = table.schema.validate_subset(lhs)
    rhs = table.schema.validate_subset([a for a in rhs if a not in lhs])
    rows = len(table)
    everything = b"\x01" * rows
    if not rhs or rows == 0:
        return everything
    lhs_keys, lhs_distinct = (
        group_keys([column_codes(table, a) for a in lhs]) if lhs else ([0] * rows, 1)
    )
    if lhs_distinct == rows:
        return everything
    rhs_keys, _ = group_keys([column_codes(table, a) for a in rhs])
    # Counter keeps first-occurrence order, so a strictly larger sub-class is
    # the only one that displaces the current choice.
    counts = Counter(zip(lhs_keys, rhs_keys))
    if len(counts) == lhs_distinct:
        return everything
    largest: dict[int, int] = {}
    chosen: dict[int, int] = {}
    for (lhs_key, rhs_key), size in counts.items():
        if size > largest.get(lhs_key, 0):
            largest[lhs_key] = size
            chosen[lhs_key] = rhs_key
    return bytes(map(eq, map(chosen.__getitem__, lhs_keys), rhs_keys))


def correct_row_indices(table: Table, lhs: Sequence[str], rhs: Sequence[str]) -> set[int]:
    """Row indices in the paper's correct-record set ``C(D, lhs -> rhs)``.

    The rows :func:`correct_row_mask` marks.
    """
    return set(compress(range(len(table)), correct_row_mask(table, lhs, rhs)))
