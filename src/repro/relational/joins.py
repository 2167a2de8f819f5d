"""Equi-join operators: the probe inner join, of tables or of row vectors.

The correlation / quality estimators operate on the inner equi-join of the
purchased instances.  (The join-informativeness measure, Definition 2.4, is
defined over the full outer join, but it is a function of the two join-key
histograms alone, so no outer join is ever materialised.)

The inner join is a *probe join* (:func:`_probe`): the right (build) side is
looked up through the row index of its join-key encoding, which is built
once and kept on the encoding
(:meth:`~repro.relational.table.ColumnEncoding.row_index`), so every join on
a sample's key shares it.  The left (probe) side is probed row by row on its
raw key values.

:func:`inner_join` returns the kind of join its left input is.  A
:class:`~repro.relational.table.Table` gathers every column of the result.
A :class:`RowVectorJoin` gathers none: per input table it holds the
positions of that table's rows in the join, and each level extends those
*row vectors*.  A target graph's evaluation joins its samples this way, and
its measures gather only the columns they read.  A row-vector join's codes
are its input table's cached encoding's, gathered at the table's row vector,
so they are not dense: a code below the encoding's ``num_codes`` need not
occur in the join.  The kernels that need a distinct count count it (see
:mod:`repro.relational.partitions`).

A row-vector join also records, per join attribute, the attribute of each
input table a probe matched to it.  On every row of the join those hold
dict-equal values, so they partition the rows alike, and
:meth:`RowVectorJoin.input_supplying` can name one input table that a set
of the join's attributes reads, through its own columns or through such
matches.  The quality measure skips the FDs that hold on that table (see
:func:`repro.quality.measure.join_quality`).
"""

from __future__ import annotations

import random
from itertools import chain, compress
from operator import itemgetter
from typing import Callable, Mapping, Sequence, Union

from repro.exceptions import JoinError, UnknownAttributeError
from repro.relational.schema import Schema
from repro.relational.table import ColumnEncoding, Table, Value, bernoulli_rows


class RowVectorJoin:
    """A join held as row vectors: per input table, its rows' positions in the join.

    Row ``i`` of the join is row ``vector[i]`` of every input table, each
    read through its own row vector.  The schema is that of the
    materialised join (:meth:`to_table`), and each of its attributes reads
    one attribute of one input table (a renamed attribute reads the one it
    renames).  Nothing is gathered until it is read: :meth:`column` gathers
    values and :meth:`codes` gathers dictionary codes, at the input table's
    row vector.  A join starts as a :meth:`scan` of one table, grows by
    :func:`inner_join` and is re-sampled by :meth:`sample_rows`; like a
    table, it is never mutated.

    Each probe also matches its join attributes to the build side's: the
    join keeps, per join attribute, every (input table, attribute) pair a
    probe matched to it, and :meth:`input_supplying` reads them.  A
    colliding non-join attribute the join renames is not matched to
    anything.
    """

    __slots__ = (
        "name", "schema", "_tables", "_rows", "_sources", "_equal", "_num_rows", "_codes"
    )

    def __init__(
        self,
        name: str,
        schema: Schema,
        tables: tuple[Table, ...],
        rows: tuple[Sequence[int], ...],
        sources: Mapping[str, tuple[int, str]],
        num_rows: int,
        equal: Mapping[str, tuple[tuple[int, str], ...]],
    ) -> None:
        self.name = name
        self.schema = schema
        # A range row vector reads every row of its table, in order.
        self._tables = tables
        self._rows = rows
        self._sources = sources  # attribute -> (input table, its attribute)
        # join attribute -> the (input table, its attribute) pairs probes
        # matched to it, which hold a dict-equal value on every row
        self._equal = equal
        self._num_rows = num_rows
        self._codes: dict[str, tuple[Sequence[int], int, int | None]] = {}

    @classmethod
    def scan(cls, table: Table, names: Sequence[str] | None = None) -> "RowVectorJoin":
        """Every row of ``table``, over ``names`` in that order (all its attributes
        when omitted)."""
        schema = table.schema if names is None else table.schema.project(names)
        sources = {name: (0, name) for name in schema.names}
        return cls(table.name, schema, (table,), (range(len(table)),), sources, len(table), {})

    def __len__(self) -> int:
        return self._num_rows

    def __repr__(self) -> str:
        names = ", ".join(table.name for table in self._tables)
        return f"RowVectorJoin({self.name!r}, {self._num_rows} rows over {names})"

    def _source(self, name: str) -> tuple[Table, str, Sequence[int]]:
        try:
            node, attribute = self._sources[name]
        except KeyError:
            raise UnknownAttributeError(name, self.schema.names) from None
        return self._tables[node], attribute, self._rows[node]

    def column(self, name: str) -> Sequence[Value]:
        """The values of one attribute at the join's rows (read-only)."""
        table, attribute, rows = self._source(name)
        return _gather(table.column(attribute), rows)

    def columns(self, names: Sequence[str]) -> list[Sequence[Value]]:
        return [self.column(name) for name in names]

    def codes(self, name: str) -> tuple[Sequence[int], int, int | None]:
        """One attribute's dictionary codes at the join's rows, their radix and
        their distinct count (cached on the join).

        The codes are those of the input table's encoding
        (:meth:`Table.encoded`, cached on that table), gathered at its row
        vector, and their radix is the encoding's ``num_codes``.  Only a
        scan's codes are dense, so only a scan knows their distinct count
        (the same number); elsewhere it is ``None``.
        """
        cached = self._codes.get(name)
        if cached is None:
            table, attribute, rows = self._source(name)
            encoding = table.encoded(attribute)
            scanned = isinstance(rows, range)
            cached = (
                _gather(encoding.codes, rows),
                encoding.num_codes,
                encoding.num_codes if scanned else None,
            )
            self._codes[name] = cached
        return cached

    def _key_codes(self, names: Sequence[str]) -> tuple[ColumnEncoding, Sequence[int]] | None:
        """The key encoding over ``names`` of the input table they read (cached
        on that table) and its codes at the join's rows, or ``None`` when
        they read more than one table."""
        nodes = {self._sources[name][0] for name in names}
        if len(nodes) > 1:
            return None
        node = nodes.pop()
        encoding = self._tables[node].encoded_key([self._sources[name][1] for name in names])
        return encoding, _gather(encoding.codes, self._rows[node])

    def input_supplying(self, names: Sequence[str]) -> tuple[Table, tuple[str, ...]] | None:
        """The first input table, in join order, that reads every one of
        ``names``, and the attribute of that table each name reads; ``None``
        when no one table does.

        A name reads its source attribute, and a join attribute also reads
        every attribute a probe matched to it.  Two rows of the join agree on
        the name exactly when they agree on any attribute it reads, because
        the probe matched keys under the dict equality the codes group by.
        """
        readers = [dict((self._sources[name], *self._equal.get(name, ()))) for name in names]
        nodes = set(readers[0]).intersection(*readers[1:])
        if not nodes:
            return None
        node = min(nodes)
        return self._tables[node], tuple(reader[node] for reader in readers)

    def _vectors_at(self, rows: list[int]) -> tuple[Sequence[int], ...]:
        """Every row vector at the join's ``rows``, in that order."""
        take = _gatherer(rows)
        return tuple(
            rows if isinstance(vector, range) else take(vector) for vector in self._rows
        )

    def sample_rows(self, rate: float, rng: random.Random) -> "RowVectorJoin":
        """The rows :meth:`Table.sample_rows` keeps of the materialised join,
        drawn from ``rng`` the same way (:func:`bernoulli_rows`)."""
        rows = bernoulli_rows(self._num_rows, rate, rng)
        vectors = self._vectors_at(rows)
        return RowVectorJoin(
            self.name,
            self.schema,
            self._tables,
            vectors,
            self._sources,
            len(rows),
            self._equal,
        )

    def to_table(self) -> Table:
        """The join materialised: every attribute's values gathered into a list."""
        columns = {name: list(self.column(name)) for name in self.schema.names}
        return Table._from_columns(self.name, self.schema, columns, self._num_rows)

    def _scanned(self) -> Table:
        """The table this join scans; a build side must scan one table."""
        if len(self._tables) != 1 or not isinstance(self._rows[0], range):
            raise JoinError(f"the build side of a join must scan one table, got {self!r}")
        return self._tables[0]

    def _extended(
        self,
        table: Table,
        schema: Schema,
        join_attrs: Sequence[str],
        right_extra: Sequence[str],
        left_rows: list[int],
        right_rows: list[int],
        name: str,
    ) -> "RowVectorJoin":
        """This join's ``left_rows`` matched with ``table``'s ``right_rows`` on
        ``join_attrs``."""
        node = len(self._tables)
        sources = dict(self._sources)
        for result_attr, attr in zip(schema.names[len(self.schema):], right_extra):
            sources[result_attr] = (node, attr)
        equal = dict(self._equal)
        for attr in join_attrs:
            equal[attr] = equal.get(attr, ()) + ((node, attr),)
        return RowVectorJoin(
            name,
            schema,
            self._tables + (table,),
            self._vectors_at(left_rows) + (right_rows,),
            sources,
            len(left_rows),
            equal,
        )


#: Either kind of join: a table, or a join held as row vectors.
Relation = Union[Table, RowVectorJoin]


def shared_join_attributes(left: Relation, right: Relation) -> tuple[str, ...]:
    """The natural-join attributes: names present in both schemas."""
    return left.schema.common_attributes(right.schema)


def _resolve_join_attributes(
    left: Relation, right: Relation, on: Sequence[str] | None
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
    left: Relation, right: Relation, join_attrs: Sequence[str]
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
    left: Relation,
    right: Relation,
    on: Sequence[str] | None = None,
    *,
    name: str | None = None,
) -> Relation:
    """Probe equi-join of two tables on ``on`` (defaults to the shared attributes).

    Each row of ``left``, in order, is followed by its matches in ascending
    ``right`` row order.  Keys compare by dict equality, and ``None`` join
    values never match (SQL NULL semantics).  Non-join attributes of the
    right table that collide with a left attribute name are prefixed with
    the right table's name.

    The result is the kind of join ``left`` is: a :class:`Table` gathers
    every column, a :class:`RowVectorJoin` extends its row vectors.
    ``right`` is a table or a :meth:`RowVectorJoin.scan` of one.
    """
    join_attrs = _resolve_join_attributes(left, right, on)
    schema, right_extra = _joined_schema(left, right, join_attrs)
    result_name = name or f"{left.name}_join_{right.name}"
    build = right._scanned() if isinstance(right, RowVectorJoin) else right
    left_rows, right_rows = _probe(left, join_attrs, build.encoded_key(join_attrs).row_index())
    if isinstance(left, RowVectorJoin):
        return left._extended(
            build, schema, join_attrs, right_extra, left_rows, right_rows, result_name
        )

    take_left, take_right = _gatherer(left_rows), _gatherer(right_rows)
    columns = {attr: list(take_left(left.column(attr))) for attr in left.schema.names}
    right_names = schema.names[len(left.schema.names):]
    for result_attr, attr in zip(right_names, right_extra):
        columns[result_attr] = list(take_right(right.column(attr)))
    return Table._from_columns(result_name, schema, columns, len(left_rows))


def _probe(
    left: Relation, join_attrs: Sequence[str], index: Mapping[tuple, list[int]]
) -> tuple[list[int], list[int]]:
    """Match each row of ``left`` against a build side's key -> rows ``index``.

    Returns the (left row, right row) vectors of the matches: each left
    row, in ascending order, repeated once per match, beside its matches in
    ascending build-side order.  A table's rows look up their key tuples.  A
    row-vector join whose key attributes all read one input table looks up
    each key of that table's cached key encoding once, and its rows read
    their codes' matches: the encoding's keys are its rows' keys under the
    index's dict equality, so the matches are the same.
    """
    keyed = left._key_codes(join_attrs) if isinstance(left, RowVectorJoin) else None
    found: Sequence[list[int] | None]
    if keyed is None:
        found = list(map(index.get, zip(*left.columns(join_attrs))))
    else:
        encoding, codes = keyed
        found = _gather(list(map(index.get, encoding.values)), codes)
    left_rows = list(compress(range(len(found)), found))
    matches = list(filter(None, found))
    right_rows = list(chain.from_iterable(matches))
    if len(right_rows) != len(left_rows):
        left_rows = [row for row, rows in zip(left_rows, matches) for _ in rows]
    return left_rows, right_rows


def _gatherer(rows: Sequence[int]) -> Callable[[Sequence[Value]], Sequence[Value]]:
    """A function from a column to its values at ``rows``, in that order."""
    if len(rows) > 1:
        return itemgetter(*rows)
    # itemgetter returns a bare value for one index and needs at least one.
    return lambda column: [column[row] for row in rows]


def _gather(values: Sequence[Value], rows: Sequence[int]) -> Sequence[Value]:
    """``values`` at ``rows``; a range row vector reads them all in place."""
    return values if isinstance(rows, range) else _gatherer(rows)(values)
