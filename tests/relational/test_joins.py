"""Tests for repro.relational.joins."""

from __future__ import annotations

import pytest

from repro.exceptions import JoinError
from repro.relational.joins import inner_join, join_path, shared_join_attributes
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
    def test_three_way_chain(self):
        a = Table.from_rows("a", ["x", "p"], [(1, "a1"), (2, "a2")])
        b = Table.from_rows("b", ["x", "y"], [(1, 10), (2, 20)])
        c = Table.from_rows("c", ["y", "q"], [(10, "c1"), (20, "c2")])
        joined = join_path([a, b, c])
        assert len(joined) == 2
        assert set(joined.schema.names) == {"x", "p", "y", "q"}

    def test_single_table_returned_unchanged(self):
        a = Table.from_rows("a", ["x"], [(1,)])
        assert join_path([a]) is a

    def test_empty_path_raises(self):
        with pytest.raises(JoinError):
            join_path([])

    def test_intermediate_hook_is_applied(self):
        a = Table.from_rows("a", ["x", "p"], [(1, "a1"), (2, "a2")])
        b = Table.from_rows("b", ["x", "y"], [(1, 10), (2, 20)])
        c = Table.from_rows("c", ["y", "q"], [(10, "c1"), (20, "c2")])
        calls = []

        def hook(table):
            calls.append(len(table))
            return table.head(1)

        joined = join_path([a, b, c], intermediate_hook=hook)
        assert calls  # hook ran on intermediates
        assert len(joined) <= 1

    def test_named_result(self):
        a = Table.from_rows("a", ["x"], [(1,)])
        b = Table.from_rows("b", ["x"], [(1,)])
        assert join_path([a, b], name="joined").name == "joined"

