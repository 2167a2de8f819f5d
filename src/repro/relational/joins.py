"""Equi-join operators: the inner join and multi-way join paths.

The correlation / quality estimators operate on the inner equi-join of the
purchased instances.  (The join-informativeness measure, Definition 2.4, is
defined over the full outer join, but it is a function of the two join-key
histograms alone, so no outer join is ever materialised.)

The inner join is a *probe join*: the right (build) side is looked up through
the row index of its join-key encoding, which is built once and kept on the
encoding (:meth:`~repro.relational.table.ColumnEncoding.row_index`), so every
projection of a sample shares it.  The left (probe) side, typically a fresh
intermediate, is probed row by row on its raw key values, and the result
columns are gathered from the (left row, right row) vectors — no
intermediate row tuples are materialised.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import itemgetter
from typing import Callable, Sequence

from repro.exceptions import JoinError
from repro.relational.schema import Schema
from repro.relational.table import Table, Value


def shared_join_attributes(left: Table, right: Table) -> tuple[str, ...]:
    """The natural-join attributes: names present in both schemas."""
    return left.schema.common_attributes(right.schema)


def _resolve_join_attributes(
    left: Table, right: Table, on: Sequence[str] | None
) -> tuple[str, ...]:
    if on is None:
        attrs = shared_join_attributes(left, right)
    else:
        attrs = tuple(on)
        left.schema.validate_subset(attrs)
        right.schema.validate_subset(attrs)
    if not attrs:
        raise JoinError(
            f"no join attributes between {left.name!r} ({left.schema.names}) "
            f"and {right.name!r} ({right.schema.names})"
        )
    return attrs


def _joined_schema(
    left: Table, right: Table, join_attrs: Sequence[str]
) -> tuple[Schema, list[str]]:
    """Schema of the join result and the right-side attributes that are appended."""
    right_extra = [name for name in right.schema.names if name not in join_attrs]
    extra_attrs = []
    for name in right_extra:
        attribute = right.schema[name]
        if name in left.schema:
            attribute = attribute.renamed(f"{right.name}.{name}")
        extra_attrs.append(attribute)
    schema = Schema(list(left.schema.attributes) + extra_attrs)
    return schema, right_extra


def inner_join(
    left: Table,
    right: Table,
    on: Sequence[str] | None = None,
    *,
    name: str | None = None,
) -> Table:
    """Probe equi-join of two tables on ``on`` (defaults to the shared attributes).

    Each row of ``left``, in order, is followed by its matches in ascending
    ``right`` row order.  Keys compare by dict equality, and ``None`` join
    values never match (SQL NULL semantics).  Non-join attributes of the
    right table that collide with a left attribute name are prefixed with
    the right table's name.
    """
    join_attrs = _resolve_join_attributes(left, right, on)
    schema, right_extra = _joined_schema(left, right, join_attrs)
    result_name = name or f"{left.name}_join_{right.name}"

    # Per left row, its right rows (None without a match); a matched left
    # row is repeated once per match when some row has more than one.
    index = right.encoded_key(join_attrs).row_index()
    found = list(map(index.get, zip(*left.columns(join_attrs))))
    left_rows = list(compress(range(len(found)), found))
    matches = list(filter(None, found))
    right_rows = list(chain.from_iterable(matches))
    if len(right_rows) != len(left_rows):
        left_rows = [row for row, rows in zip(left_rows, matches) for _ in rows]

    take_left, take_right = _gatherer(left_rows), _gatherer(right_rows)
    columns = {attr: take_left(left.column(attr)) for attr in left.schema.names}
    right_names = schema.names[len(left.schema.names):]
    for result_attr, attr in zip(right_names, right_extra):
        columns[result_attr] = take_right(right.column(attr))
    return Table._from_columns(result_name, schema, columns, len(left_rows))


def _gatherer(rows: list[int]) -> Callable[[list[Value]], list[Value]]:
    """A function from a column to its values at ``rows``, in that order."""
    if len(rows) > 1:
        getter = itemgetter(*rows)
        return lambda column: list(getter(column))
    # itemgetter returns a bare value for one index and needs at least one.
    return lambda column: [column[row] for row in rows]


def join_path(
    tables: Sequence[Table],
    *,
    name: str | None = None,
    intermediate_hook=None,
) -> Table:
    """Left-deep evaluation of a join path ``T1 ⋈ T2 ⋈ ... ⋈ Tk``.

    ``intermediate_hook`` (if given) is called with each intermediate join
    result and must return the (possibly re-sampled) table to continue with;
    the correlated re-sampling estimator plugs in here to bound intermediate
    sizes.
    """
    if not tables:
        raise JoinError("join_path requires at least one table")
    result = tables[0]
    for right in tables[1:]:
        result = inner_join(result, right)
        if intermediate_hook is not None:
            result = intermediate_hook(result)
    if name is not None:
        result = result.with_name(name)
    return result
