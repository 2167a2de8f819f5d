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

Inner joins emit their rows grouped by left row, in left row order, so
joining a row subset of the left side yields exactly the join's rows whose
left row is in that subset, in the same order.  :class:`JoinLineage` uses
this to replay a re-sampled join chain without joining: it keeps each
level's left-row index vector and the unsampled final join, and carries a
sampler's byte mask of kept rows down the index vectors.  A
:func:`lineage_memo` holds lineages for a session, within a bound on their
rows.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import attrgetter, itemgetter
from typing import Sequence

from repro.exceptions import JoinError
from repro.memo import Memo
from repro.relational.schema import Schema
from repro.relational.table import ColumnEncoding, Table, Value, mask_rows


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
    return inner_join_origins(left, right, on, name=name)[0]


def inner_join_origins(
    left: Table,
    right: Table,
    on: Sequence[str] | None = None,
    *,
    name: str | None = None,
):
    """:func:`inner_join`, plus the left row each result row came from
    (an ascending list)."""
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
    return Table._from_columns(result_name, schema, columns, len(left_idx)), left_idx


def _mask_gather(origins):
    """A function that carries a byte mask over a level's rows to the rows of
    the next level, whose ``origins`` name the row each came from.

    An ``operator.itemgetter`` over the origins gathers them in C.
    """
    if len(origins) < 2:  # itemgetter needs an item, and returns one bare
        return lambda mask: bytes(mask[row] for row in origins)
    gather = itemgetter(*origins)
    return lambda mask: bytes(gather(mask))


def _narrow(candidates: bytes, keep) -> bytes:
    """``candidates`` with its marked rows narrowed to those ``keep`` marks;
    ``keep`` holds one byte per marked row, in row order."""
    narrowed = bytearray(len(candidates))
    for row in compress(compress(range(len(candidates)), candidates), keep):
        narrowed[row] = 1
    return bytes(narrowed)


class JoinLineage:
    """A left-deep join chain from the first level a sampler re-sampled on.

    ``fired_rows`` is that level's row count; ``origins`` holds, for each
    later level, the row of the level before that each of its rows came
    from; ``joined`` is the unsampled final join.  Whether a sampler fires
    depends on the row count alone, and the levels before the first firing
    are never sampled, so every replay fires first at the same level.
    ``summary`` holds what an evaluator derives from ``joined`` once for
    all its replays (see :meth:`repro.graph.target.TargetGraph.evaluate`);
    it lives as long as the lineage, which a :func:`lineage_memo` may keep
    for many walks.

    A replay carries a byte mask, one byte per row and 1 for kept, from the
    first level's draw down the origins (:meth:`kept_mask`); it never lists
    row positions.  The per-level gathers are built on the first replay.  A
    replay writes nothing but those gathers and the summary, each a function
    of the lineage alone, so walks on several threads may replay one
    lineage at once.
    """

    __slots__ = ("fired_rows", "origins", "joined", "summary", "_gathers")

    def __init__(self, fired_rows: int) -> None:
        self.fired_rows = fired_rows
        self.origins: list = []
        self.joined: Table | None = None
        self.summary = None
        self._gathers: list | None = None

    def add_level(self, origins) -> None:
        """Record the next level's origins (packed into ``int64``)."""
        self.origins.append(array("q", origins))

    @property
    def rows(self) -> int:
        """The rows the lineage holds: its origins plus the final join's."""
        return sum(map(len, self.origins)) + len(self.joined)

    def kept_mask(self, sampler, first_mask: bytes | None = None) -> bytes:
        """The byte mask of the rows of ``joined`` that re-sampling every level
        with ``sampler`` keeps.

        ``sampler.draw(num_rows)`` returns a byte mask over ``num_rows``
        rows, or ``None`` to keep all; it is called once per level from the
        first re-sampled one on, with the row count the sampled chain has
        there, so with the same calls, in the same order, as sampling while
        joining.  A level's candidates are the rows whose origin was kept,
        and its draw narrows them.  ``first_mask`` is the first level's draw
        when it was already made.
        """
        mask = first_mask if first_mask is not None else sampler.draw(self.fired_rows)
        if mask is None:
            mask = b"\x01" * self.fired_rows
        if self._gathers is None:
            self._gathers = [_mask_gather(origins) for origins in self.origins]
        for gather in self._gathers:
            candidates = gather(mask)
            keep = sampler.draw(candidates.count(1))
            mask = candidates if keep is None else _narrow(candidates, keep)
        return mask

    def sample(self, sampler, first_mask: bytes | None = None) -> Table:
        """The final join as re-sampling every level with ``sampler`` makes it
        (the rows :meth:`kept_mask` marks)."""
        return self.joined.take(mask_rows(self.kept_mask(sampler, first_mask)))


#: The rows a :func:`lineage_memo` holds at most (see :attr:`JoinLineage.rows`):
#: about 15 MB at the 59 bytes per row that fresh-tpch's fired lineages
#: retain with their summaries and replay gathers (tracemalloc, python 3.11).
#: Read when a memo is made.
LINEAGE_MEMO_ROWS = 1 << 18


def lineage_memo() -> Memo:
    """An empty memo of join lineages by graph signature, for a session's walks.

    A walk looks a fired graph up in its own lineages first and here second,
    and offers every lineage it fires on here (see
    :func:`repro.search.mcmc.mcmc_search`).  The memo holds at most
    :data:`LINEAGE_MEMO_ROWS` rows, each lineage counted as its
    :attr:`JoinLineage.rows` (see :class:`~repro.memo.Memo` for the eviction
    order).  A walk that needs an evicted lineage builds it again.

    A lineage records the rows of its graph's tables and the level a
    re-sampling policy first fires on, so one memo serves one set of tables
    and one policy.  Its owner drops the lineages a write made stale (see
    :func:`repro.graph.target.prune_memos`).
    """
    return Memo(LINEAGE_MEMO_ROWS, size=attrgetter("rows"))


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
