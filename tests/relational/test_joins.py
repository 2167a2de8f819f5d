"""Tests for repro.relational.joins."""

from __future__ import annotations

import pytest

from repro.exceptions import JoinError
from repro.memo import Memo
from repro.relational.joins import (
    JoinLineage,
    full_outer_join,
    inner_join,
    join_path,
    join_size_upper_bound,
    lineage_memo,
    shared_join_attributes,
)
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


class TestFullOuterJoin:
    def test_keeps_unmatched_both_sides(self, left, right):
        outer = full_outer_join(left, right)
        # matched: 2 rows (k=1 twice); left-only: k=2, k=3, k=None; right-only: k=4
        assert len(outer) == 6

    def test_right_join_key_copy_present(self, left, right):
        outer = full_outer_join(left, right)
        assert "right.k" in outer.schema
        pairs = list(zip(outer.column("k"), outer.column("right.k")))
        assert (2, None) in pairs
        assert (None, 4) in pairs

    def test_all_matched_means_no_nulls(self):
        a = Table.from_rows("a", ["k", "x"], [(1, "a")])
        b = Table.from_rows("b", ["k", "y"], [(1, "b")])
        outer = full_outer_join(a, b)
        assert len(outer) == 1
        assert None not in outer.row(0)


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


class TestJoinSizeBound:
    def test_upper_bound_is_exact_for_keys(self, left, right):
        bound = join_size_upper_bound(left, right)
        assert bound == len(inner_join(left, right))

    def test_zero_when_no_shared_attributes(self):
        a = Table.from_rows("a", ["x"], [(1,)])
        b = Table.from_rows("b", ["y"], [(1,)])
        assert join_size_upper_bound(a, b) == 0


def lineage(origin_rows: int, joined_rows: int) -> JoinLineage:
    """A lineage of one later level holding ``origin_rows + joined_rows`` rows."""
    built = JoinLineage(origin_rows)
    built.add_level(range(origin_rows))
    built.joined = Table.from_rows("joined", ["k"], [(i,) for i in range(joined_rows)])
    return built


class TestLineageMemo:
    @pytest.fixture
    def memo(self, monkeypatch) -> Memo:
        """A lineage memo that holds at most 10 rows."""
        monkeypatch.setattr("repro.relational.joins.LINEAGE_MEMO_ROWS", 10)
        return lineage_memo()

    def test_rows_count_origins_and_the_final_join(self):
        assert lineage(3, 5).rows == 8
        final_level = JoinLineage(4)
        final_level.joined = Table.from_rows("joined", ["k"], [(0,), (1,)])
        assert final_level.rows == 2

    def test_evicts_in_insertion_order_to_fit_a_put(self, memo):
        memo["a"] = lineage(2, 2)
        memo["b"] = lineage(1, 2)
        memo["c"] = lineage(1, 1)
        assert memo.get("a") is not None  # a read does not refresh an entry
        memo["d"] = lineage(3, 3)
        assert memo.keys() == ["c", "d"]
        assert memo.units == 8 == sum(memo.get(key).rows for key in memo.keys())

    def test_a_lineage_over_the_bound_is_not_held(self, memo):
        memo["a"] = lineage(2, 2)
        memo["big"] = lineage(6, 5)
        assert memo.keys() == ["a"]
        assert memo.get("big") is None

    def test_a_held_key_keeps_its_lineage(self, memo):
        first = lineage(1, 1)
        memo["a"] = first
        memo["a"] = lineage(2, 2)
        assert memo.get("a") is first
        assert memo.units == 2

    def test_pop_returns_rows_to_the_budget(self, memo):
        memo["a"] = lineage(2, 3)
        assert memo.pop("missing", "default") == "default"
        assert memo.pop("a").rows == 5
        assert (len(memo), memo.units) == (0, 0)
