"""Column-oriented relational table.

:class:`Table` is the single data container used throughout the library.  It is
column oriented (a dict of equal-length lists) because almost every operation
the DANCE pipeline performs — projections, entropy of attribute sets, partition
refinement for FD checking, hash-based correlated sampling on a join attribute —
touches a few columns of many rows.
"""

from __future__ import annotations

import random
from itertools import compress
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import SamplingError, SchemaError
from repro.relational.schema import Attribute, AttributeType, Schema

Row = tuple
Value = object


class ColumnEncoding:
    """Dictionary encoding of one column (or multi-column key) of a table.

    ``codes`` holds one integer per row; ``values`` maps each code back to the
    original value (a bare value for single columns, a tuple for multi-column
    keys).  Codes are assigned in first-occurrence order, so iterating
    ``values`` reproduces the first-seen order of the raw data.  Encodings are
    produced and cached by :meth:`Table.encoded` / :meth:`Table.encoded_key`;
    they are the substrate for the histogram-based entropy / join kernels.
    """

    __slots__ = ("codes", "values", "_counts")

    def __init__(self, codes: list[int], values: list[Value]) -> None:
        self.codes = codes
        self.values = values
        self._counts = None

    @property
    def num_codes(self) -> int:
        return len(self.values)

    def counts(self) -> list[int]:
        """Histogram of the codes (``counts()[c]`` = occurrences of code ``c``)."""
        if self._counts is None:
            from repro.infotheory.entropy import counts_of_codes

            self._counts = counts_of_codes(self.codes, len(self.values))
        return self._counts

    def value_counts(self) -> dict[Value, int]:
        """Histogram keyed by the original values, in first-occurrence order."""
        counts = self.counts()
        return {value: counts[code] for code, value in enumerate(self.values)}


def _encode(values: Sequence[Value]) -> ColumnEncoding:
    """Dictionary-encode ``values``: codes in first-occurrence order."""
    codes: list[int] = []
    mapping: dict[Value, int] = {}
    decode: list[Value] = []
    for value in values:
        code = mapping.get(value)
        if code is None:
            code = len(decode)
            mapping[value] = code
            decode.append(value)
        codes.append(code)
    return ColumnEncoding(codes, decode)


def bernoulli_mask(num_rows: int, rate: float, rng: random.Random) -> bytes:
    """A Bernoulli sample at ``rate`` as a byte mask: byte ``i`` is 1 when row
    ``i`` is kept, 0 when it is not.

    The rows kept, and the state ``rng`` is left in, are those of one
    ``rng.random() <= rate`` test per row, in row order, but all rows are
    drawn by one ``rng.getrandbits`` call.  ``random()`` builds its float
    from the next two 32-bit Mersenne-Twister words ``(a, b)`` as
    ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, and ``getrandbits`` returns
    the next words least significant first, so in its little-endian bytes
    row ``i``'s ``a`` is bytes ``8i`` to ``8i + 3``.  A row is kept iff
    that 53-bit integer is at most ``int(rate * 2**53)``.  Its top 8 bits
    are the top byte of ``a``, which alone decides every row whose top byte
    differs from the threshold's; the others, about one row in 256, are
    decided from all 53 bits.  Every row sampler of the library draws
    through here, so a sample taken from a row count alone consumes the
    same stream as sampling the table itself.

    Raises :class:`~repro.exceptions.SamplingError` for a ``rate`` outside
    ``(0, 1]``.
    """
    if not 0.0 < rate <= 1.0:
        raise SamplingError(f"sampling rate must be in (0, 1], got {rate}")
    raw = rng.getrandbits(64 * num_rows).to_bytes(8 * num_rows, "little")
    threshold = int(rate * 2**53)
    tie = threshold >> 45
    # Maps a row's top byte to 1 (kept), 0 (dropped) or 2 (decided below).
    # At rate 1.0 the threshold's top byte is 256, so every row is kept and
    # the slice trims the table to 256 entries.
    mask = raw[3::8].translate((b"\x01" * tie + b"\x02" + b"\x00" * (255 - tie))[:256])
    row = mask.find(2)
    if row < 0:
        return mask
    mask = bytearray(mask)
    while row >= 0:
        word = int.from_bytes(raw[8 * row : 8 * row + 8], "little")
        mask[row] = ((word & 0xFFFF_FFFF) >> 5 << 26) + (word >> 38) <= threshold
        row = mask.find(2, row + 1)
    return bytes(mask)


def mask_rows(mask) -> list[int]:
    """The positions of the nonzero bytes of ``mask``, in ascending order."""
    return list(compress(range(len(mask)), mask))


def bernoulli_rows(num_rows: int, rate: float, rng: random.Random) -> list[int]:
    """The row positions a Bernoulli sample at ``rate`` keeps, in ascending
    order (those :func:`bernoulli_mask` marks)."""
    return mask_rows(bernoulli_mask(num_rows, rate, rng))


class Table:
    """An immutable-by-convention, column-oriented relational instance.

    Tables are the single data container of the library: marketplace
    datasets, correlated samples, and join results are all ``Table`` objects.
    Statistics needed by the hot path — dictionary encodings
    (:meth:`encoded` / :meth:`encoded_key`), code histograms and key entropies
    (:meth:`key_entropy`) — are computed lazily and cached on the table, and
    inherited by derived tables that share column objects
    (:meth:`project`, :meth:`rename`, :meth:`with_name`).  The caches assume
    columns are never mutated in place.

    Parameters
    ----------
    name:
        Instance name (e.g. ``"lineitem"``).  Used as the vertex label in the
        join graph and in generated SQL.
    schema:
        The table's :class:`Schema`.
    columns:
        Mapping from attribute name to a list of values.  All columns must have
        the same length and exactly cover the schema.
    """

    __slots__ = (
        "name",
        "schema",
        "_columns",
        "_num_rows",
        "_encodings",
        "_stats",
    )

    def __init__(
        self, name: str, schema: Schema, columns: Mapping[str, Sequence[Value]]
    ) -> None:
        if set(columns) != set(schema.names):
            missing = set(schema.names) - set(columns)
            extra = set(columns) - set(schema.names)
            raise SchemaError(
                f"columns do not match schema for table {name!r}: "
                f"missing={sorted(missing)}, unexpected={sorted(extra)}"
            )
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"columns of table {name!r} have unequal lengths: {sorted(lengths)}")
        self.name = name
        self.schema = schema
        self._columns: dict[str, list[Value]] = {
            attr: list(columns[attr]) for attr in schema.names
        }
        self._num_rows = lengths.pop() if lengths else 0
        self._encodings: dict[tuple[str, ...], ColumnEncoding] = {}
        # Entropy statistics, plus the content fingerprint the catalog caches
        # here (see repro.storage.serialize.table_fingerprint).
        self._stats: dict[object, float | str] = {}

    @classmethod
    def _from_columns(
        cls, name: str, schema: Schema, columns: dict[str, list[Value]], num_rows: int
    ) -> "Table":
        """Internal fast constructor: trusts (and shares) the given column lists.

        Callers must pass columns that exactly match ``schema`` with equal
        lengths ``num_rows``; the lists are adopted without copying, so they
        must not be mutated afterwards (tables are immutable by convention).
        """
        table = cls.__new__(cls)
        table.name = name
        table.schema = schema
        table._columns = columns
        table._num_rows = num_rows
        table._encodings = {}
        table._stats = {}
        return table

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_rows(
        cls,
        name: str,
        schema: Schema | Sequence[Attribute | str],
        rows: Iterable[Sequence[Value]],
    ) -> "Table":
        """Build a table from an iterable of row tuples/lists."""
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        columns: dict[str, list[Value]] = {attr: [] for attr in schema.names}
        names = schema.names
        for row in rows:
            if len(row) != len(names):
                raise SchemaError(
                    f"row of width {len(row)} does not match schema of width {len(names)}"
                )
            for attr, value in zip(names, row):
                columns[attr].append(value)
        return cls(name, schema, columns)

    @classmethod
    def from_dicts(
        cls,
        name: str,
        schema: Schema | Sequence[Attribute | str],
        records: Iterable[Mapping[str, Value]],
    ) -> "Table":
        """Build a table from an iterable of ``{attribute: value}`` mappings."""
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        columns: dict[str, list[Value]] = {attr: [] for attr in schema.names}
        for record in records:
            for attr in schema.names:
                columns[attr].append(record.get(attr))
        return cls(name, schema, columns)

    @classmethod
    def empty(cls, name: str, schema: Schema | Sequence[Attribute | str]) -> "Table":
        """A zero-row table with the given schema."""
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        return cls(name, schema, {attr: [] for attr in schema.names})

    # ------------------------------------------------------------------ dunder
    def __len__(self) -> int:
        return self._num_rows

    def __iter__(self) -> Iterator[Row]:
        return self.iter_rows()

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows, {len(self.schema)} attributes)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self.schema == other.schema
            and self._num_rows == other._num_rows
            and self._columns == other._columns
        )

    # ------------------------------------------------------------------ access
    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self.schema.names

    def column(self, name: str) -> list[Value]:
        """The values of one attribute (a copy is *not* made; treat as read-only)."""
        self.schema.index_of(name)
        return self._columns[name]

    def columns(self, names: Sequence[str]) -> list[list[Value]]:
        return [self.column(name) for name in names]

    def row(self, index: int) -> Row:
        return tuple(self._columns[attr][index] for attr in self.schema.names)

    def iter_rows(self) -> Iterator[Row]:
        names = self.schema.names
        cols = [self._columns[attr] for attr in names]
        for i in range(self._num_rows):
            yield tuple(col[i] for col in cols)

    def to_dicts(self) -> list[dict[str, Value]]:
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.iter_rows()]

    def key_tuples(self, names: Sequence[str]) -> list[tuple]:
        """Row-aligned tuples of the values of ``names`` (used for grouping/joins)."""
        cols = self.columns(list(names))
        return list(zip(*cols)) if cols else [() for _ in range(self._num_rows)]

    # ---------------------------------------------------------------- encoding
    def encoded(self, name: str) -> ColumnEncoding:
        """Lazy dictionary encoding of one column (cached on the table).

        The cache assumes the column is never mutated (tables are immutable by
        convention); callers that mutate column lists in place would observe a
        stale encoding.
        """
        key = (name,)
        encoding = self._encodings.get(key)
        if encoding is None:
            encoding = _encode(self.column(name))
            self._encodings[key] = encoding
        return encoding

    def encoded_key(self, names: Sequence[str]) -> ColumnEncoding:
        """Lazy dictionary encoding of the tuple-key over ``names`` (cached).

        ``values`` are row tuples, aligned with :meth:`key_tuples`.  For a
        single column this still yields one-element tuples so that keys compare
        equal across tables regardless of how they were produced.
        """
        key = tuple(names)
        encoding = self._encodings.get(("#key",) + key)
        if encoding is None:
            if len(key) == 1:
                base = self.encoded(key[0])
                encoding = ColumnEncoding(base.codes, [(value,) for value in base.values])
            else:
                encoding = _encode(self.key_tuples(key))
            self._encodings[("#key",) + key] = encoding
        return encoding

    def key_entropy(self, names: Sequence[str]) -> float:
        """Shannon entropy (bits) of the joint distribution of ``names`` (cached).

        This is the quantity the entropy pricing model and several search
        heuristics need per (table, attribute-set) pair; caching it removes the
        dominant repeated cost from the MCMC evaluation loop.
        """
        from repro.infotheory.entropy import entropy_of_counts

        key = ("entropy",) + tuple(names)
        cached = self._stats.get(key)
        if cached is None:
            cached = entropy_of_counts(self.encoded_key(names).counts())
            self._stats[key] = cached
        return cached

    def _adopt_encodings_from(
        self, parent: "Table", rename_map: Mapping[str, str] | None = None
    ) -> "Table":
        """Share ``parent``'s cached encodings/entropies where columns are identical.

        A cached :class:`ColumnEncoding` (or key entropy) is valid for a
        derived table exactly when every column it was built from is the *same
        list object* in both tables and the row count is unchanged — which is
        the case for projections, renames, and ``with_name`` (all of which
        share column lists), but never for ``take``/``select`` (which gather
        new lists).  ``rename_map`` translates attribute names when the
        derived table renamed columns without copying them.
        """
        if self._num_rows != parent._num_rows:
            return self
        mapping = rename_map or {}
        # Snapshot both cache dicts: a concurrent request may memoise a new
        # encoding/entropy on the shared parent mid-iteration (the serve tier
        # projects the same hot source tables from many threads), and
        # iterating the live dict would raise "changed size during iteration".
        for key, encoding in list(parent._encodings.items()):
            old_names = key[1:] if key[0] == "#key" else key
            new_names = tuple(mapping.get(n, n) for n in old_names)
            if not all(
                new in self._columns and self._columns[new] is parent._columns[old]
                for old, new in zip(old_names, new_names)
            ):
                continue
            new_key = ("#key",) + new_names if key[0] == "#key" else new_names
            self._encodings.setdefault(new_key, encoding)
        for key, value in list(parent._stats.items()):
            if key[0] != "entropy":
                continue
            old_names = key[1:]
            new_names = tuple(mapping.get(n, n) for n in old_names)
            if all(
                new in self._columns and self._columns[new] is parent._columns[old]
                for old, new in zip(old_names, new_names)
            ):
                self._stats.setdefault(("entropy",) + new_names, value)
        return self

    # -------------------------------------------------------------- operations
    def with_name(self, name: str) -> "Table":
        """The same data under a different instance name (columns are shared)."""
        return Table._from_columns(
            name, self.schema, self._columns, self._num_rows
        )._adopt_encodings_from(self)

    def project(self, names: Sequence[str], *, name: str | None = None) -> "Table":
        """Relational projection onto ``names`` (duplicates are kept, SQL-bag style).

        Column lists are shared with the parent table, so projection is O(1)
        per attribute regardless of the row count, and cached
        :class:`ColumnEncoding`/entropy statistics over the surviving columns
        are inherited rather than recomputed.
        """
        validated = self.schema.validate_subset(names)
        schema = self.schema.project(validated)
        columns = {attr: self._columns[attr] for attr in validated}
        return Table._from_columns(
            name or self.name, schema, columns, self._num_rows
        )._adopt_encodings_from(self)

    def select(self, predicate: Callable[[dict[str, Value]], bool], *, name: str | None = None) -> "Table":
        """Relational selection with a row-dict predicate."""
        names = self.schema.names
        keep: list[int] = []
        for i in range(self._num_rows):
            record = {attr: self._columns[attr][i] for attr in names}
            if predicate(record):
                keep.append(i)
        return self.take(keep, name=name)

    def take(self, indices: Sequence[int], *, name: str | None = None) -> "Table":
        """A new table containing the rows at ``indices`` (in the given order).

        Gathering produces fresh column lists, so — unlike :meth:`project` —
        cached encodings cannot be shared with the parent (the identity
        condition of :meth:`_adopt_encodings_from` never holds) and the
        derived table re-encodes lazily on first use.
        """
        columns = {
            attr: [values[i] for i in indices] for attr, values in self._columns.items()
        }
        return Table._from_columns(name or self.name, self.schema, columns, len(indices))

    def head(self, n: int) -> "Table":
        return self.take(range(min(n, self._num_rows)))

    def rename(self, mapping: Mapping[str, str], *, name: str | None = None) -> "Table":
        """Rename attributes; data is shared column-wise (encodings carry over)."""
        schema = self.schema.rename(mapping)
        columns = {
            mapping.get(attr, attr): values for attr, values in self._columns.items()
        }
        return Table._from_columns(
            name or self.name, schema, columns, self._num_rows
        )._adopt_encodings_from(self, rename_map=dict(mapping))

    def distinct(self, names: Sequence[str] | None = None, *, name: str | None = None) -> "Table":
        """Distinct rows (over ``names`` if given, else over the whole schema)."""
        subset = self if names is None else self.project(names)
        seen: set[tuple] = set()
        keep: list[int] = []
        for i, row in enumerate(subset.iter_rows()):
            if row not in seen:
                seen.add(row)
                keep.append(i)
        return subset.take(keep, name=name)

    def append_column(
        self, attribute: Attribute | str, values: Sequence[Value], *, name: str | None = None
    ) -> "Table":
        """A new table with one extra column appended."""
        if isinstance(attribute, str):
            attribute = Attribute(attribute, AttributeType.infer(values))
        if len(values) != self._num_rows:
            raise SchemaError(
                f"new column {attribute.name!r} has {len(values)} values, "
                f"table has {self._num_rows} rows"
            )
        schema = Schema(list(self.schema.attributes) + [attribute])
        columns = dict(self._columns)
        columns[attribute.name] = list(values)
        return Table(name or self.name, schema, columns)

    def concat(self, other: "Table", *, name: str | None = None) -> "Table":
        """Union-all of two tables with identical schemas."""
        if self.schema != other.schema:
            raise SchemaError(
                f"cannot concat tables with different schemas: {self.schema} vs {other.schema}"
            )
        columns = {
            attr: self._columns[attr] + other._columns[attr] for attr in self.schema.names
        }
        return Table._from_columns(
            name or self.name, self.schema, columns, self._num_rows + other._num_rows
        )

    def shuffled(self, rng: random.Random, *, name: str | None = None) -> "Table":
        """Rows in a random order drawn from ``rng`` (used by re-sampling)."""
        indices = list(range(self._num_rows))
        rng.shuffle(indices)
        return self.take(indices, name=name)

    def sample_rows(self, rate: float, rng: random.Random, *, name: str | None = None) -> "Table":
        """Bernoulli row sample at ``rate`` using ``rng`` (uniform, not correlated).

        Raises :class:`~repro.exceptions.SamplingError` for a ``rate`` outside
        ``(0, 1]``.
        """
        return self.take(bernoulli_rows(self._num_rows, rate, rng), name=name)

    # --------------------------------------------------------------- summaries
    def distinct_count(self, names: Sequence[str]) -> int:
        """Number of distinct value combinations of ``names``."""
        return self.encoded_key(names).num_codes

    def value_counts(self, names: Sequence[str]) -> dict[tuple, int]:
        """Histogram of the value combinations of ``names`` (first-occurrence order)."""
        return self.encoded_key(names).value_counts()

    def null_fraction(self, name: str) -> float:
        """Fraction of ``None`` values in one column."""
        if self._num_rows == 0:
            return 0.0
        column = self.column(name)
        return sum(1 for value in column if value is None) / self._num_rows

    def describe(self) -> dict[str, object]:
        """A small summary dict used by the marketplace catalog and Table 5 bench."""
        return {
            "name": self.name,
            "num_rows": self._num_rows,
            "num_attributes": len(self.schema),
            "attributes": list(self.schema.names),
            "numerical": list(self.schema.numerical_names()),
            "categorical": list(self.schema.categorical_names()),
        }
