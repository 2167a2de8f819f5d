"""Tests for repro.relational.joins."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import JoinError, UnknownAttributeError
from repro.graph.target import TargetGraph
from repro.relational.joins import RowVectorJoin, inner_join, shared_join_attributes
from repro.relational.table import Table


@pytest.fixture
def left() -> Table:
    return Table.from_rows("left", ["k", "a"], [(1, "x"), (2, "y"), (3, "z"), (None, "w")])


@pytest.fixture
def right() -> Table:
    return Table.from_rows("right", ["k", "b"], [(1, "p"), (1, "q"), (4, "r")])


class TestSharedAttributes:
    def test_shared(self, left, right):
        assert shared_join_attributes(left, right) == ("k",)

    def test_none_shared(self):
        a = Table.from_rows("a", ["x"], [(1,)])
        b = Table.from_rows("b", ["y"], [(1,)])
        assert shared_join_attributes(a, b) == ()


class TestInnerJoin:
    def test_basic_match_counts(self, left, right):
        joined = inner_join(left, right)
        assert len(joined) == 2  # k=1 matches two right rows
        assert set(joined.schema.names) == {"k", "a", "b"}

    def test_none_keys_never_match(self, left):
        other = Table.from_rows("other", ["k", "c"], [(None, "n")])
        assert len(inner_join(left, other)) == 0

    def test_explicit_join_attributes(self, left, right):
        joined = inner_join(left, right, on=["k"])
        assert len(joined) == 2

    def test_no_join_attributes_raises(self):
        a = Table.from_rows("a", ["x"], [(1,)])
        b = Table.from_rows("b", ["y"], [(1,)])
        with pytest.raises(JoinError):
            inner_join(a, b)

    def test_name_collision_prefixes_right(self):
        a = Table.from_rows("a", ["k", "v"], [(1, "av")])
        b = Table.from_rows("b", ["k", "v"], [(1, "bv")])
        joined = inner_join(a, b, on=["k"])
        assert "b.v" in joined.schema
        assert joined.column("b.v") == ["bv"]

    def test_natural_join_uses_all_shared_attributes(self):
        a = Table.from_rows("a", ["k", "v"], [(1, "av")])
        b = Table.from_rows("b", ["k", "v"], [(1, "bv")])
        # natural join matches on both k and v, and the v values differ
        assert len(inner_join(a, b)) == 0

    def test_multi_attribute_join(self):
        a = Table.from_rows("a", ["x", "y", "p"], [(1, 1, "a"), (1, 2, "b")])
        b = Table.from_rows("b", ["x", "y", "q"], [(1, 1, "c"), (2, 2, "d")])
        joined = inner_join(a, b)
        assert len(joined) == 1
        assert joined.row(0) == (1, 1, "a", "c")


class TestJoinPath:
    """A target graph joins its tables level by level (``TargetGraph.joined_rows``)."""

    @pytest.fixture
    def path(self) -> tuple[TargetGraph, dict[str, Table]]:
        a = Table.from_rows("a", ["x", "p"], [(1, "a1"), (2, "a2")])
        b = Table.from_rows("b", ["x", "y"], [(1, 10), (2, 20)])
        c = Table.from_rows("c", ["y", "q"], [(10, "c1"), (20, "c2")])
        graph = TargetGraph(
            nodes=["a", "b", "c"],
            edges=[frozenset({"x"}), frozenset({"y"})],
            projections={"a": {"x", "p"}, "b": {"x", "y"}, "c": {"y", "q"}},
        )
        return graph, {"a": a, "b": b, "c": c}

    def test_three_way_chain(self, path):
        graph, tables = path
        joined = graph.joined_table(tables)
        assert len(joined) == 2
        assert set(joined.schema.names) == {"x", "p", "y", "q"}

    def test_intermediate_hook_is_applied(self, path):
        graph, tables = path
        calls = []

        class Hook:
            """Fires on every intermediate; its sampler keeps the first row."""

            def fires(self, rows):
                return True

            def for_graph(self, signature):
                def sampler(join):
                    calls.append(len(join))
                    return RowVectorJoin.scan(join.to_table().head(1))

                return sampler

        joined = graph.joined_table(tables, intermediate_hook=Hook())
        assert calls == [2, 1]  # the hook ran on both intermediates
        assert len(joined) <= 1


class TestRowVectorJoin:
    """A row-vector join holds the rows of the join it materialises."""

    @pytest.fixture
    def chain(self) -> list[Table]:
        a = Table.from_rows("a", ["x", "p", "v"], [(i % 4, f"a{i % 3}", i) for i in range(12)])
        b = Table.from_rows("b", ["x", "y", "v"], [(i % 5, i % 2, -i) for i in range(10)])
        c = Table.from_rows("c", ["y", "q"], [(0, "c0"), (1, "c1"), (1, "c2"), (None, "c3")])
        return [a, b, c]

    def test_materialises_the_table_join(self, chain):
        a, b, c = chain
        rows = inner_join(inner_join(RowVectorJoin.scan(a), RowVectorJoin.scan(b), ["x"]), c)
        table = inner_join(inner_join(a, b, ["x"]), c)
        assert isinstance(rows, RowVectorJoin) and len(rows) == len(table) > 0
        assert rows.schema == table.schema and "b.v" in rows.schema
        assert rows.to_table() == table
        assert rows.to_table().name == table.name

    def test_a_scan_reads_its_attributes_in_place(self, chain):
        a = chain[0]
        scan = RowVectorJoin.scan(a, ["v", "x"])
        assert scan.schema.names == ("v", "x")
        assert scan.column("x") is a.column("x")
        assert scan.codes("x") == (a.encoded("x").codes, 4, 4)
        with pytest.raises(UnknownAttributeError):
            scan.column("p")

    def test_codes_are_gathered_from_the_tables_encoding(self, chain):
        a, b, _ = chain
        rows = inner_join(RowVectorJoin.scan(a), b, ["x"])
        codes, radix, distinct = rows.codes("y")
        encoding = b.encoded("y")
        assert (radix, distinct) == (encoding.num_codes, None)
        assert [encoding.values[code] for code in codes] == list(rows.column("y"))

    def test_sample_rows_keeps_the_tables_draw(self, chain):
        a, b, _ = chain
        rows = inner_join(RowVectorJoin.scan(a), b, ["x"])
        left, right = random.Random(3), random.Random(3)
        sample = rows.sample_rows(0.5, left)
        assert sample.to_table() == rows.to_table().sample_rows(0.5, right)
        assert left.getstate() == right.getstate()
        assert 0 < len(sample) < len(rows)

    def test_the_build_side_scans_one_table(self, chain):
        a, b, c = chain
        rows = inner_join(RowVectorJoin.scan(b), c, ["y"])
        with pytest.raises(JoinError, match="scan one table"):
            inner_join(RowVectorJoin.scan(a), rows, ["x"])
