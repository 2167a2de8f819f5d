"""Tests for repro.relational.table."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.exceptions import SamplingError, SchemaError
from repro.relational.schema import Attribute, AttributeType, Schema
from repro.relational.table import Table, bernoulli_mask, bernoulli_rows


@pytest.fixture
def people() -> Table:
    schema = Schema(
        [
            Attribute("name"),
            Attribute("city"),
            Attribute("age", AttributeType.NUMERICAL),
        ]
    )
    rows = [
        ("alice", "nyc", 30),
        ("bob", "nyc", 41),
        ("carol", "sf", 29),
        ("dave", "sf", 29),
        ("erin", "la", None),
    ]
    return Table.from_rows("people", schema, rows)


class TestConstruction:
    def test_from_rows_and_len(self, people):
        assert len(people) == 5
        assert people.num_rows == 5
        assert people.attribute_names == ("name", "city", "age")

    def test_from_dicts_fills_missing_with_none(self):
        table = Table.from_dicts("t", ["a", "b"], [{"a": 1}, {"a": 2, "b": 3}])
        assert table.column("b") == [None, 3]

    def test_empty(self):
        table = Table.empty("t", ["a"])
        assert len(table) == 0

    def test_row_width_mismatch_raises(self):
        with pytest.raises(SchemaError):
            Table.from_rows("t", ["a", "b"], [(1,)])

    def test_columns_must_cover_schema(self):
        with pytest.raises(SchemaError):
            Table("t", Schema(["a", "b"]), {"a": [1]})

    def test_unequal_column_lengths_raise(self):
        with pytest.raises(SchemaError):
            Table("t", Schema(["a", "b"]), {"a": [1], "b": [1, 2]})


class TestAccess:
    def test_column_and_row(self, people):
        assert people.column("city")[0] == "nyc"
        assert people.row(2) == ("carol", "sf", 29)

    def test_iter_rows_matches_to_dicts(self, people):
        rows = list(people.iter_rows())
        dicts = people.to_dicts()
        assert len(rows) == len(dicts) == 5
        assert dicts[0] == {"name": "alice", "city": "nyc", "age": 30}

    def test_key_tuples(self, people):
        keys = people.key_tuples(["city", "age"])
        assert keys[0] == ("nyc", 30)
        assert len(keys) == 5


class TestOperations:
    def test_project(self, people):
        projected = people.project(["city"])
        assert projected.attribute_names == ("city",)
        assert len(projected) == 5

    def test_project_unknown_raises(self, people):
        from repro.exceptions import UnknownAttributeError

        with pytest.raises(UnknownAttributeError):
            people.project(["nope"])

    def test_select(self, people):
        sf_only = people.select(lambda r: r["city"] == "sf")
        assert len(sf_only) == 2

    def test_take_preserves_order(self, people):
        taken = people.take([3, 0])
        assert taken.column("name") == ["dave", "alice"]

    def test_head(self, people):
        assert len(people.head(2)) == 2
        assert len(people.head(100)) == 5

    def test_rename(self, people):
        renamed = people.rename({"city": "town"})
        assert "town" in renamed.schema
        assert renamed.column("town") == people.column("city")

    def test_distinct_full_row(self):
        table = Table.from_rows("t", ["a"], [(1,), (1,), (2,)])
        assert len(table.distinct()) == 2

    def test_distinct_on_subset(self, people):
        assert len(people.distinct(["city"])) == 3

    def test_append_column(self, people):
        extended = people.append_column("country", ["us"] * 5)
        assert extended.column("country") == ["us"] * 5
        assert len(extended.schema) == 4

    def test_append_column_wrong_length(self, people):
        with pytest.raises(SchemaError):
            people.append_column("x", [1, 2])

    def test_concat(self, people):
        doubled = people.concat(people)
        assert len(doubled) == 10

    def test_concat_schema_mismatch(self, people):
        other = Table.from_rows("o", ["x"], [(1,)])
        with pytest.raises(SchemaError):
            people.concat(other)

    def test_shuffled_is_permutation(self, people):
        shuffled = people.shuffled(random.Random(3))
        assert sorted(shuffled.column("name")) == sorted(people.column("name"))

    def test_sample_rows_rate_one_keeps_all(self, people):
        assert len(people.sample_rows(1.0, random.Random(0))) == 5

    @pytest.mark.parametrize(
        "rate", [float("nan"), float("inf"), float("-inf"), 2.0, 1.0000000000000002, 0.0, -0.5]
    )
    def test_sample_rows_rejects_a_rate_outside_zero_one(self, people, rate):
        with pytest.raises(SamplingError, match="rate"):
            people.sample_rows(rate, random.Random(0))

    def test_with_name(self, people):
        assert people.with_name("other").name == "other"
        assert people.with_name("other").column("name") == people.column("name")


def reference_draw(num_rows: int, rate: float, rng: random.Random) -> list[int]:
    """One ``rng.random() <= rate`` test per row, in row order."""
    return [row for row in range(num_rows) if rng.random() <= rate]


@st.composite
def bernoulli_draws(draw):
    """``(num_rows, rate, seed)``.  Besides 0.5, 1.0 and rates near 0 and 1,
    the rate may be a ``random()`` value of the drawn stream or 1 ulp either
    side of one: the row that drew it has the threshold's top byte, so only
    the exact 53-bit comparison decides it."""
    num_rows = draw(st.integers(min_value=0, max_value=20_000))
    seed = draw(st.integers(min_value=0, max_value=2**64))
    rate = draw(
        st.sampled_from([0.5, 1.0])
        | st.floats(min_value=5e-324, max_value=1e-3)
        | st.floats(min_value=0.999, max_value=1.0)
        | st.floats(min_value=5e-324, max_value=1.0)
    )
    if num_rows and draw(st.booleans()):
        rng = random.Random(seed)
        values = [rng.random() for _ in range(draw(st.integers(1, num_rows)))]
        rate = draw(st.sampled_from([math.nextafter(values[-1], 0.0), values[-1],
                                     math.nextafter(values[-1], 1.0)]))
    assume(0.0 < rate <= 1.0)
    return num_rows, rate, seed


class TestBernoulliDraw:
    @settings(max_examples=150, deadline=None)
    @given(bernoulli_draws())
    def test_one_getrandbits_call_draws_what_per_row_random_calls_draw(self, case):
        num_rows, rate, seed = case
        reference_rng = random.Random(seed)
        expected = reference_draw(num_rows, rate, reference_rng)
        rng = random.Random(seed)
        mask = bernoulli_mask(num_rows, rate, rng)
        assert len(mask) == num_rows and set(mask) <= {0, 1}
        assert [row for row, kept in enumerate(mask) if kept] == expected
        assert rng.getstate() == reference_rng.getstate()
        rng = random.Random(seed)
        assert bernoulli_rows(num_rows, rate, rng) == expected
        assert rng.getstate() == reference_rng.getstate()


class TestSummaries:
    def test_distinct_count(self, people):
        assert people.distinct_count(["city"]) == 3

    def test_value_counts(self, people):
        counts = people.value_counts(["city"])
        assert counts[("nyc",)] == 2

    def test_null_fraction(self, people):
        assert people.null_fraction("age") == pytest.approx(0.2)
        assert Table.empty("t", ["a"]).null_fraction("a") == 0.0

    def test_describe(self, people):
        info = people.describe()
        assert info["num_rows"] == 5
        assert info["numerical"] == ["age"]

    def test_equality(self, people):
        assert people == people.with_name("people")
        assert people != people.project(["name"])


class TestConcurrentMemoisation:
    def test_adopt_encodings_is_safe_while_parent_caches_grow(self):
        """Regression: projecting a hot shared table while other threads
        memoise new encodings on it raised "dictionary changed size during
        iteration" (`_adopt_encodings_from` iterated the live cache dicts).
        The serve tier hits exactly this: concurrent requests project the
        same source tables from many handler threads."""
        import threading

        width = 120
        columns = [f"c{i}" for i in range(width)]
        table = Table.from_rows(
            "wide", columns, [tuple(f"v{i}_{r}" for i in range(width)) for r in range(4)]
        )
        # Pre-warm a slice so the adopting iteration has entries to walk.
        for name in columns[:20]:
            table.encoded(name)

        errors: list[BaseException] = []
        stop = threading.Event()

        def memoise():
            try:
                index = 20
                while not stop.is_set() and index < width:
                    table.encoded(columns[index])
                    table.key_entropy([columns[index]])
                    index += 1
            except BaseException as error:  # noqa: BLE001 - recorded for the assert
                errors.append(error)

        def adopt():
            try:
                for _ in range(300):
                    table.project(columns[:30])
            except BaseException as error:  # noqa: BLE001 - recorded for the assert
                errors.append(error)

        workers = [threading.Thread(target=memoise) for _ in range(2)]
        workers += [threading.Thread(target=adopt) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
        stop.set()
        assert errors == []


def make_table() -> Table:
    schema = Schema(
        [
            Attribute("k", AttributeType.CATEGORICAL),
            Attribute("num", AttributeType.NUMERICAL),
            Attribute("cat", AttributeType.CATEGORICAL),
        ]
    )
    rows = [
        ("a", 1, "x"),
        ("b", 2, "y"),
        ("a", 3, "x"),
        (None, 4, "z"),
        ("c", 2, "y"),
        ("a", 1, None),
    ]
    return Table.from_rows("t", schema, rows)


class TestEncodingPropagation:
    def test_project_inherits_cached_encodings(self):
        table = make_table()
        encoding = table.encoded("k")
        key_encoding = table.encoded_key(("k", "cat"))
        entropy = table.key_entropy(("k",))
        projected = table.project(["k", "cat"])
        assert projected.encoded("k") is encoding
        assert projected.encoded_key(("k", "cat")) is key_encoding
        assert projected.key_entropy(("k",)) == entropy
        assert ("entropy", "k") in projected._stats

    def test_project_drops_encodings_of_dropped_columns(self):
        table = make_table()
        table.encoded("num")
        projected = table.project(["k"])
        assert ("num",) not in projected._encodings

    def test_with_name_and_rename_inherit(self):
        table = make_table()
        encoding = table.encoded("k")
        renamed = table.rename({"k": "key"})
        assert renamed.encoded("key") is encoding
        assert table.with_name("other").encoded("k") is encoding

    def test_take_re_encodes(self):
        table = make_table()
        table.encoded("k")
        subset = table.take([0, 2, 4])
        assert not subset._encodings  # gathered columns: nothing to inherit
        assert subset.encoded("k").values == ["a", "c"]

    def test_projected_encoding_matches_fresh_encoding(self):
        table = make_table()
        table.encoded_key(("k", "cat"))
        projected = table.project(["k", "cat"])
        fresh = Table(
            "fresh",
            projected.schema,
            {name: list(projected.column(name)) for name in projected.schema.names},
        )
        inherited = projected.encoded_key(("k", "cat"))
        rebuilt = fresh.encoded_key(("k", "cat"))
        assert list(inherited.codes) == list(rebuilt.codes)
        assert inherited.values == rebuilt.values
