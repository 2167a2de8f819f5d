"""Tests for join informativeness (Definition 2.4)."""

from __future__ import annotations

import pytest

from repro.exceptions import JoinError
from repro.infotheory.join_informativeness import (
    join_informativeness,
    join_informativeness_from_pairs,
)
from repro.relational.table import Table


class TestFromPairs:
    def test_bounds(self):
        left = ["a", "b", "c", None]
        right = ["a", "b", None, "d"]
        value = join_informativeness_from_pairs(left, right)
        assert 0.0 <= value <= 1.0

    def test_perfect_match_is_low(self):
        left = ["a", "b", "c", "d"]
        assert join_informativeness_from_pairs(left, left) == pytest.approx(0.0)

    def test_no_match_is_higher_than_full_match(self):
        unmatched = join_informativeness_from_pairs(
            ["a", "b", None, None], [None, None, "c", "d"]
        )
        matched = join_informativeness_from_pairs(["a", "b", "c", "d"], ["a", "b", "c", "d"])
        assert unmatched > matched
        # with two distinct unmatched values on each side, the NULL partner is
        # ambiguous, which costs exactly half of the joint entropy here
        assert unmatched == pytest.approx(0.5)

    def test_empty_pairs(self):
        assert join_informativeness_from_pairs([], []) == 1.0

    def test_constant_pair_is_zero(self):
        assert join_informativeness_from_pairs(["a", "a"], ["a", "a"]) == 0.0

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            join_informativeness_from_pairs(["a"], ["a", "b"])


class TestJoinInformativeness:
    def test_fully_matching_tables_are_most_informative(self):
        left = Table.from_rows("l", ["k", "a"], [(1, "x"), (2, "y"), (3, "z")])
        right = Table.from_rows("r", ["k", "b"], [(1, "p"), (2, "q"), (3, "r")])
        assert join_informativeness(left, right) == pytest.approx(0.0)

    def test_disjoint_tables_are_less_informative_than_overlapping(self):
        left = Table.from_rows("l", ["k", "a"], [(1, "x"), (2, "y")])
        disjoint = Table.from_rows("r", ["k", "b"], [(3, "p"), (4, "q")])
        matching = Table.from_rows("r", ["k", "b"], [(1, "p"), (2, "q")])
        assert join_informativeness(left, disjoint) > join_informativeness(left, matching)
        assert join_informativeness(left, disjoint) >= 0.5

    def test_partial_overlap_is_between(self):
        left = Table.from_rows("l", ["k", "a"], [(1, "x"), (2, "y"), (3, "z")])
        right = Table.from_rows("r", ["k", "b"], [(1, "p"), (9, "q")])
        value = join_informativeness(left, right)
        assert 0.0 < value < 1.0

    def test_more_unmatched_values_raise_ji(self):
        left = Table.from_rows("l", ["k", "a"], [(i, "x") for i in range(10)])
        mostly_matching = Table.from_rows("r", ["k", "b"], [(i, "p") for i in range(9)] + [(99, "q")])
        barely_matching = Table.from_rows("r", ["k", "b"], [(0, "p")] + [(100 + i, "q") for i in range(9)])
        assert join_informativeness(left, barely_matching) > join_informativeness(
            left, mostly_matching
        )

    def test_meaningless_aggregation_join_penalised(self):
        """A join where one side's values barely overlap (the paper's DS ⋈ D5 case)."""
        detail = Table.from_rows(
            "detail", ["age", "addr"], [("[35,40]", "a"), ("[20,25]", "b"), ("[55,60]", "c")]
        )
        aggregate = Table.from_rows(
            "agg", ["age", "pop"], [("[35,40]", 100), ("[35,40]", 200), ("[35,40]", 300)]
        )
        good_pair = Table.from_rows(
            "good", ["age", "pop"], [("[35,40]", 1), ("[20,25]", 2), ("[55,60]", 3)]
        )
        assert join_informativeness(detail, aggregate) > join_informativeness(
            detail, good_pair
        )

    def test_explicit_join_attributes(self):
        # on j: all left rows match the single right "a" row -> JI 0
        # on k: nothing matches and several unmatched values pile up on each
        # side -> JI > 0, so the chosen join attribute matters
        left = Table.from_rows("l", ["k", "j"], [(1, "a"), (2, "a"), (3, "a")])
        right = Table.from_rows("r", ["k", "j"], [(8, "a"), (9, "b")])
        on_k = join_informativeness(left, right, on=["k"])
        on_j = join_informativeness(left, right, on=["j"])
        assert on_k > on_j

    def test_no_shared_attributes_raises(self):
        left = Table.from_rows("l", ["a"], [(1,)])
        right = Table.from_rows("r", ["b"], [(1,)])
        with pytest.raises(JoinError):
            join_informativeness(left, right)
