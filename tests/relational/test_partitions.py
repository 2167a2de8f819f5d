"""Tests for partitions / equivalence classes (paper Definition 2.1, Example 2.1)."""

from __future__ import annotations

from repro.relational.partitions import (
    correct_row_indices,
    equivalence_classes,
    partition,
    partition_error,
    stripped_partition,
)
from repro.relational.table import Table


class TestPartition:
    def test_partition_groups_by_value(self, example_d):
        groups = partition(example_d, ["A"])
        assert set(groups) == {("a1",), ("a2",)}
        assert groups[("a1",)] == [0, 1, 2, 3]
        assert groups[("a2",)] == [4]

    def test_partition_on_two_attributes(self, example_d):
        groups = partition(example_d, ["A", "B"])
        assert len(groups) == 4
        assert groups[("a1", "b1")] == [0, 1]

    def test_equivalence_classes(self, example_d):
        classes = equivalence_classes(example_d, ["A"])
        sizes = sorted(len(c) for c in classes)
        assert sizes == [1, 4]

    def test_stripped_partition_drops_singletons(self, example_d):
        stripped = stripped_partition(example_d, ["A"])
        assert len(stripped) == 1
        assert len(stripped[0]) == 4


class TestPartitionError:
    def test_example_from_paper(self, example_d):
        # C(D, A->B) = {t1, t2, t5}, so 2 of 5 tuples are erroneous.
        assert partition_error(example_d, ["A"], ["B"]) == 0.4

    def test_zero_error_when_fd_holds(self):
        table = Table.from_rows("t", ["A", "B"], [("a", "x"), ("a", "x"), ("b", "y")])
        assert partition_error(table, ["A"], ["B"]) == 0.0

    def test_empty_table_has_zero_error(self):
        table = Table.empty("t", ["A", "B"])
        assert partition_error(table, ["A"], ["B"]) == 0.0

    def test_error_is_fraction_of_rows(self):
        rows = [("a", 1), ("a", 1), ("a", 1), ("a", 2)]
        table = Table.from_rows("t", ["A", "B"], rows)
        assert partition_error(table, ["A"], ["B"]) == 0.25


class TestCorrectRows:
    def test_correct_rows_match_paper_example(self, example_d):
        correct = correct_row_indices(example_d, ["A"], ["B"])
        assert correct == {0, 1, 4}

    def test_rhs_overlapping_lhs_is_handled(self):
        table = Table.from_rows("t", ["A", "B"], [("a", "x"), ("a", "y")])
        correct = correct_row_indices(table, ["A", "B"], ["B"])
        # B is functionally determined by (A, B) trivially: everything correct.
        assert correct == {0, 1}
