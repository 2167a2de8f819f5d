"""Equi-join operators: inner join, full outer join, and multi-way join paths.

The correlation / quality estimators operate on the (inner) equi-join result of
the purchased instances, while the join-informativeness measure (Definition
2.4) is defined over the *full outer* join of two instances so that unmatched
join values are penalised.  Both operators are hash joins on the shared join
attributes.

The joins are *columnar*: each side's join key is dictionary-encoded once
(cached on the table), matching happens per distinct key code rather than per
row, and the result columns are gathered directly from (left row, right row)
index vectors — no intermediate row tuples are materialised.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import JoinError
from repro.relational.schema import Schema
from repro.relational.table import ColumnEncoding, Table, Value


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


def _build_hash_index(table: Table, attrs: Sequence[str]) -> dict[tuple, list[int]]:
    index: dict[tuple, list[int]] = {}
    for row_index, key in enumerate(table.key_tuples(attrs)):
        if any(value is None for value in key):
            continue
        index.setdefault(key, []).append(row_index)
    return index


def _rows_by_code(encoding: ColumnEncoding) -> list[list[int]]:
    """Row indices grouped by key code (the columnar hash index).

    Group ``c`` holds the rows with code ``c`` in ascending row order.
    """
    groups: list[list[int]] = [[] for _ in range(encoding.num_codes)]
    for row_index, code in enumerate(encoding.codes):
        groups[code].append(row_index)
    return groups


def _matches_per_left_code(
    left_encoding: ColumnEncoding, right_encoding: ColumnEncoding
) -> list[list[int] | None]:
    """For each distinct left key code, the matching right row indices (or None).

    ``None`` join values never match (SQL NULL semantics), so keys containing
    ``None`` — on either side — produce no matches.
    """
    right_groups = _rows_by_code(right_encoding)
    right_by_value: dict = {}
    for code, value in enumerate(right_encoding.values):
        if right_groups[code] and not any(v is None for v in value):
            right_by_value[value] = right_groups[code]
    matches: list[list[int] | None] = []
    for value in left_encoding.values:
        if any(v is None for v in value):
            matches.append(None)
        else:
            matches.append(right_by_value.get(value))
    return matches


def _join_row_indices(
    left_encoding: ColumnEncoding,
    right_encoding: ColumnEncoding,
    num_right_rows: int,
    *,
    outer: bool,
) -> tuple[list[int], list[int]]:
    """The (left row, right row) index vectors of the join result, in row order.

    Index ``-1`` marks the NULL pad of an unmatched side (outer joins only).
    Matched pairs are emitted per left row in order; for outer joins the
    right-only rows follow in ascending right row order.
    """
    matches = _matches_per_left_code(left_encoding, right_encoding)
    left_idx: list[int] = []
    right_idx: list[int] = []
    right_matched = [False] * num_right_rows if outer else None
    for left_row_index, code in enumerate(left_encoding.codes):
        matched_rows = matches[code]
        if matched_rows:
            left_idx.extend([left_row_index] * len(matched_rows))
            right_idx.extend(matched_rows)
            if outer:
                for right_row_index in matched_rows:
                    right_matched[right_row_index] = True
        elif outer:
            left_idx.append(left_row_index)
            right_idx.append(-1)
    if outer:
        for right_row_index, was_matched in enumerate(right_matched):
            if not was_matched:
                left_idx.append(-1)
                right_idx.append(right_row_index)
    return left_idx, right_idx


def _gather(table: Table, name: str, indices: list[int]) -> list[Value]:
    """Values of ``table.column(name)`` at ``indices``; index ``-1`` yields NULL."""
    column = table.column(name)
    return [None if i < 0 else column[i] for i in indices]


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
    """Hash equi-join of two tables on ``on`` (defaults to the shared attributes).

    ``None`` join values never match (SQL NULL semantics).  Non-join attributes
    of the right table that collide with a left attribute name are prefixed
    with the right table's name.
    """
    join_attrs = _resolve_join_attributes(left, right, on)
    schema, right_extra = _joined_schema(left, right, join_attrs)
    result_name = name or f"{left.name}_join_{right.name}"

    left_idx, right_idx = _join_row_indices(
        left.encoded_key(join_attrs),
        right.encoded_key(join_attrs),
        len(right),
        outer=False,
    )

    columns: dict[str, list[Value]] = {}
    for attr in left.schema.names:
        columns[attr] = _gather(left, attr, left_idx)
    result_names = schema.names
    for offset, attr in enumerate(right_extra):
        columns[result_names[len(left.schema.names) + offset]] = _gather(
            right, attr, right_idx
        )
    return Table._from_columns(result_name, schema, columns, len(left_idx))


def full_outer_join(
    left: Table,
    right: Table,
    on: Sequence[str] | None = None,
    *,
    name: str | None = None,
) -> Table:
    """Full outer equi-join: matched rows plus left-only and right-only rows.

    Unmatched sides are padded with ``None``.  The join-informativeness measure
    uses the joint distribution of the two join-attribute copies in this
    result, so the join attribute of the *right* table is preserved in a
    dedicated column named ``"<right.name>.<attr>"``.
    """
    join_attrs = _resolve_join_attributes(left, right, on)
    right_extra = [name_ for name_ in right.schema.names if name_ not in join_attrs]

    # The outer-join schema keeps both copies of the join attributes so that
    # (value, NULL) pairs remain observable.
    right_copy_attrs = [right.schema[a].renamed(f"{right.name}.{a}") for a in join_attrs]
    extra_attrs = []
    for name_ in right_extra:
        attribute = right.schema[name_]
        if name_ in left.schema:
            attribute = attribute.renamed(f"{right.name}.{name_}")
        extra_attrs.append(attribute)
    schema = Schema(list(left.schema.attributes) + right_copy_attrs + extra_attrs)
    result_name = name or f"{left.name}_outer_{right.name}"

    left_idx, right_idx = _join_row_indices(
        left.encoded_key(join_attrs),
        right.encoded_key(join_attrs),
        len(right),
        outer=True,
    )

    columns: dict[str, list[Value]] = {}
    for attr in left.schema.names:
        columns[attr] = _gather(left, attr, left_idx)
    result_names = schema.names
    offset = len(left.schema.names)
    for position, attr in enumerate(list(join_attrs) + right_extra):
        columns[result_names[offset + position]] = _gather(right, attr, right_idx)
    return Table._from_columns(result_name, schema, columns, len(left_idx))


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


def join_size_upper_bound(left: Table, right: Table, on: Sequence[str] | None = None) -> int:
    """A cheap upper bound on the inner-join cardinality (sum over key histogram products)."""
    try:
        join_attrs = _resolve_join_attributes(left, right, on)
    except JoinError:
        return 0
    left_counts = left.value_counts(join_attrs)
    right_counts = right.value_counts(join_attrs)
    total = 0
    for key, left_count in left_counts.items():
        if any(value is None for value in key):
            continue
        total += left_count * right_counts.get(key, 0)
    return total
