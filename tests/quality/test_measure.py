"""Tests for the quality measures Q(D, F) and Q(D) (Definitions 2.2 / 2.3, Example 2.2)."""

from __future__ import annotations

import pytest

from repro.quality.fd import FunctionalDependency
from repro.quality.measure import (
    correct_records,
    instance_quality,
    join_quality,
    violating_records,
)
from repro.relational.joins import RowVectorJoin, inner_join
from repro.relational.table import Table


@pytest.fixture
def paper_d1() -> Table:
    """A compressed version of the paper's Table 3(a): FD A -> B, quality 0.75.

    Twelve majority rows carry B = b1 with C values that never match D2, while
    the four minority rows (b2/b3) carry the C values c1..c3 that do match D2.
    """
    rows = [("a1", "b1", f"c{i}") for i in range(10, 22)]  # 12 correct rows, unmatched C
    rows += [("a1", "b2", "c1"), ("a1", "b2", "c2"), ("a1", "b3", "c3"), ("a1", "b3", "c3")]
    return Table.from_rows("d1", ["A", "B", "C"], rows)


@pytest.fixture
def paper_d2() -> Table:
    """The paper's Table 3(b): FD D -> E, quality 0.6."""
    rows = [
        ("c1", "d1", "e1"),
        ("c1", "d1", "e1"),
        ("c2", "d1", "e2"),
        ("c3", "d1", "e2"),
        ("c4", "d1", "e2"),
    ]
    return Table.from_rows("d2", ["C", "D", "E"], rows)


class TestInstanceQuality:
    def test_paper_example_2_1(self, example_d, fd_a_b):
        assert instance_quality(example_d, fd_a_b) == pytest.approx(0.6)
        assert correct_records(example_d, fd_a_b) == {0, 1, 4}

    def test_clean_table_has_quality_one(self):
        table = Table.from_rows("t", ["A", "B"], [("a", "x"), ("a", "x"), ("b", "y")])
        assert instance_quality(table, FunctionalDependency("A", "B")) == 1.0

    def test_empty_table_has_quality_one(self):
        table = Table.empty("t", ["A", "B"])
        assert instance_quality(table, FunctionalDependency("A", "B")) == 1.0

    def test_inapplicable_fd_counts_everything_correct(self, example_d):
        fd = FunctionalDependency("A", "Z")
        assert instance_quality(example_d, fd) == 1.0

    def test_violating_records_complement(self, example_d, fd_a_b):
        assert violating_records(example_d, fd_a_b) == {2, 3}

    def test_d2_quality(self, paper_d2):
        assert instance_quality(paper_d2, FunctionalDependency("D", "E")) == pytest.approx(0.6)


class TestJoinQuality:
    def test_join_changes_quality(self, paper_d1, paper_d2):
        """High-quality instances can become low-quality after join (Example 2.2)."""
        fd_ab = FunctionalDependency("A", "B")
        fd_de = FunctionalDependency("D", "E")
        q1 = instance_quality(paper_d1, fd_ab)
        q2 = instance_quality(paper_d2, fd_de)
        joined = inner_join(paper_d1, paper_d2)
        q_joined = join_quality(joined, [fd_ab, fd_de])
        assert q1 == pytest.approx(0.75)
        assert q2 == pytest.approx(0.6)
        # the joined result keeps only C values c1..c3, where the B values flip
        # to b2/b3-dominated and D->E splits, so quality drops below both inputs
        assert q_joined == pytest.approx(0.2)
        assert q_joined < min(q1, q2)

    def test_intersection_of_correct_sets(self):
        rows = [("a", "x", "p", "u"), ("a", "x", "p", "v"), ("a", "y", "q", "u")]
        table = Table.from_rows("t", ["A", "B", "C", "D"], rows)
        fd1 = FunctionalDependency("A", "B")  # correct rows {0, 1}
        fd2 = FunctionalDependency("C", "D")  # correct rows {0 or 1} ∪ {2}
        quality = join_quality(table, [fd1, fd2])
        assert 0.0 < quality < 1.0

    def test_no_applicable_fds_means_quality_one(self, example_d):
        assert join_quality(example_d, [FunctionalDependency("X", "Y")]) == 1.0

    def test_empty_fd_list(self, example_d):
        assert join_quality(example_d, []) == 1.0

    def test_quality_of_tables_joins_first(self, paper_d1, paper_d2):
        """The row-vector join an evaluation measures reads like the joined table."""
        fds = [FunctionalDependency("A", "B"), FunctionalDependency("D", "E")]
        direct = join_quality(inner_join(paper_d1, paper_d2), fds)
        rows = inner_join(RowVectorJoin.scan(paper_d1), RowVectorJoin.scan(paper_d2))
        assert join_quality(rows, fds) == pytest.approx(direct)

    def test_quality_of_single_table(self, example_d, fd_a_b):
        assert join_quality(example_d, [fd_a_b]) == pytest.approx(0.6)

    def test_disjoint_correct_sets_give_zero(self):
        rows = [("a", "x", "p", "u"), ("a", "y", "q", "u"), ("a", "y", "q", "v")]
        # A->B correct = the two a/y rows {1,2}; C->D on q: largest is {1} or {2}...
        table = Table.from_rows("t", ["A", "B", "C", "D"], rows)
        quality = join_quality(
            table, [FunctionalDependency("A", "B"), FunctionalDependency("C", "D")]
        )
        assert 0.0 <= quality <= 1.0
