"""Quality measurement: ``Q(D, F)`` for one FD and ``Q(D)`` for a join result.

Following Definitions 2.2 and 2.3 of the paper:

* For one FD ``X -> Y`` the correct-record set ``C(D, X -> Y)`` keeps, for each
  equivalence class of ``pi_X``, only the rows of the *largest* sub-class of
  ``pi_{X ∪ Y}``; quality is ``|C| / |D|``.
* For a set of instances ``D`` the quality is measured on the join result
  ``J = ⋈ D_i`` against the set of AFDs ``F`` that hold on ``J``:
  ``Q(D) = |⋂_F C(J, F)| / |J|``.

Because join can both create and destroy FD violations (Example 2.2 of the
paper), quality is always measured on the join result.  :func:`join_quality`
takes a joined table or a row-vector join
(:class:`~repro.relational.joins.RowVectorJoin`), which is what a target
graph's evaluation hands it.  A row-vector join's codes are gathered from the
samples' encodings and are not dense, and
:func:`~repro.relational.partitions.correct_row_mask` counts the distinct LHS
keys its fast paths compare.

Example 2.2's violations have a limit.  A join's rows repeat or drop the rows
of each instance, so a join can create violations only of an FD whose
attributes come from different instances.  An FD whose attributes one
instance supplies (directly, or through join attributes a probe matched to
its columns) and which holds on that whole instance holds on every multiset
of its rows: its correct set is every row of the join.  On a row-vector join
:func:`join_quality` skips those FDs.  Whether an FD holds on an instance is
decided once per (instance table, attributes) and kept in the table's
statistics.
"""

from __future__ import annotations

from typing import Iterable

from repro.quality.fd import FunctionalDependency
from repro.relational.joins import Relation, RowVectorJoin
from repro.relational.partitions import (
    correct_row_count,
    correct_row_indices,
    correct_row_mask,
)
from repro.relational.table import Table


def correct_records(table: Table, fd: FunctionalDependency) -> set[int]:
    """Row indices of ``C(table, fd)`` (Definition 2.2)."""
    if not fd.applies_to(table):
        return set(range(len(table)))
    return correct_row_indices(table, fd.lhs, (fd.rhs,))


def instance_quality(table: Table, fd: FunctionalDependency) -> float:
    """``Q(table, fd) = |C(table, fd)| / |table|``; empty tables have quality 1."""
    if len(table) == 0:
        return 1.0
    return len(correct_records(table, fd)) / len(table)


def join_quality(table: Relation, fds: Iterable[FunctionalDependency]) -> float:
    """``Q`` of a (join-result) table against a set of FDs (Definition 2.3).

    The correct set is the intersection of the per-FD correct sets; FDs whose
    attributes are not all present in the table are ignored (they cannot be
    checked on the projection the shopper buys), which one subset test of
    each FD's attribute set decides.  Each set is a
    :func:`~repro.relational.partitions.correct_row_mask`, read as one int
    with one byte per row, so intersecting and counting run on whole ints.
    ``table`` is a table or a row-vector join, whose masks are computed on
    the codes it gathers.  A row-vector join also skips every FD that holds
    on the one input table its attributes read
    (:meth:`~repro.relational.joins.RowVectorJoin.input_supplying`), whose
    correct set is every row (see the module docstring).
    """
    if len(table) == 0:
        return 1.0
    names = frozenset(table.schema.name_set)
    applicable = [fd for fd in fds if fd.attribute_set <= names]
    if isinstance(table, RowVectorJoin):
        applicable = [fd for fd in applicable if not _holds_on_its_input(table, fd)]
    if not applicable:
        return 1.0
    correct = -1  # every bit set, so the first FD's mask is kept whole
    for fd in applicable:
        correct &= int.from_bytes(correct_row_mask(table, fd.lhs, (fd.rhs,)), "little")
        if not correct:
            return 0.0
    return correct.bit_count() / len(table)


def _holds_on_its_input(join: RowVectorJoin, fd: FunctionalDependency) -> bool:
    """Whether one input table of ``join`` reads every attribute of ``fd`` and
    ``fd`` holds exactly on that whole table.

    The fact is computed once per (table, attributes) and kept in the
    table's statistics, under its own attribute names; a concurrent first
    computation stores an equal bool.
    """
    supplied = join.input_supplying(fd.attributes)
    if supplied is None:
        return False
    table, attributes = supplied
    key = ("holds", *attributes)
    held = table._stats.get(key)
    if held is None:
        held = correct_row_count(table, attributes[:-1], attributes[-1:]) == len(table)
        table._stats[key] = held
    return held


def violating_records(table: Table, fd: FunctionalDependency) -> set[int]:
    """Row indices *not* in the correct set for ``fd`` (useful for repair/debugging)."""
    if len(table) == 0 or not fd.applies_to(table):
        return set()
    return set(range(len(table))) - correct_records(table, fd)
