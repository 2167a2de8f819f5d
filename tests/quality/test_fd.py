"""Tests for FunctionalDependency semantics."""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import QualityError
from repro.quality.fd import FunctionalDependency
from repro.quality.measure import instance_quality
from repro.relational.table import Table


class TestConstruction:
    def test_string_lhs_becomes_tuple(self):
        fd = FunctionalDependency("a", "b")
        assert fd.lhs == ("a",)
        assert fd.rhs == "b"

    def test_multi_attribute_lhs(self):
        fd = FunctionalDependency(("a", "b"), "c")
        assert fd.attributes == ("a", "b", "c")

    def test_empty_lhs_rejected(self):
        with pytest.raises(QualityError):
            FunctionalDependency((), "b")

    def test_empty_rhs_rejected(self):
        with pytest.raises(QualityError):
            FunctionalDependency(("a",), "")

    def test_trivial_fd_rejected(self):
        with pytest.raises(QualityError):
            FunctionalDependency(("a", "b"), "a")

    def test_str_representation(self):
        assert str(FunctionalDependency(("a", "b"), "c")) == "a,b -> c"

    def test_hashable_and_equal(self):
        assert FunctionalDependency("a", "b") == FunctionalDependency(("a",), "b")
        assert len({FunctionalDependency("a", "b"), FunctionalDependency("a", "b")}) == 1

    def test_the_attribute_set_stays_out_of_equality_and_pickles(self):
        """Equality and hash stay on ``(lhs, rhs)``, and an FD pickled before
        it kept an attribute set (a catalog's, or the shared store's) loads
        and gets one."""
        fd = FunctionalDependency(("a", "b"), "c")
        fresh = FunctionalDependency(("a", "b"), "c")
        assert fd.attribute_set == frozenset({"a", "b", "c"})
        assert fd == fresh and len({fd, fresh}) == 1
        assert pickle.loads(pickle.dumps(fd)) == fd
        older = pickle.dumps(fresh)  # pickled without an attribute set
        assert b"attribute_set" not in older
        loaded = pickle.loads(older)
        assert loaded == fd and loaded.attribute_set == fd.attribute_set

    def test_decompose(self):
        fds = FunctionalDependency.decompose(("x",), ["y", "z"])
        assert [str(fd) for fd in fds] == ["x -> y", "x -> z"]


class TestSemantics:
    def test_applies_to(self, zip_table):
        fd = FunctionalDependency("zipcode", "state")
        assert fd.applies_to(zip_table)
        assert not FunctionalDependency("zipcode", "country").applies_to(zip_table)

    def test_holds_exactly_false_on_dirty_table(self, zip_table):
        assert not FunctionalDependency("zipcode", "state").holds_exactly(zip_table)

    def test_holds_exactly_true_on_clean_table(self):
        table = Table.from_rows("t", ["z", "s"], [("1", "NJ"), ("1", "NJ"), ("2", "NY")])
        assert FunctionalDependency("z", "s").holds_exactly(table)

    def test_holds_approximately(self, zip_table):
        fd = FunctionalDependency("zipcode", "state")
        # 3 of 4 rows are correct -> quality 0.75
        assert fd.holds_approximately(zip_table, 0.7)
        assert not fd.holds_approximately(zip_table, 0.9)

    @pytest.mark.parametrize(
        "b_values, theta",
        [
            # largest class 2 of 10: 1.0 - (1.0 - 0.2) is 0.19999999999999996
            ([1, 1, 2, 3, 4, 5, 6, 7, 8, 9], 0.2),
            ([1] * 9 + [2], 0.9),
        ],
    )
    def test_quality_on_the_threshold_holds(self, b_values, theta):
        table = Table.from_rows("t", ["a", "b"], [("x", b) for b in b_values])
        fd = FunctionalDependency("a", "b")
        assert instance_quality(table, fd) == theta
        assert fd.holds_approximately(table, theta)

    def test_empty_table_holds(self):
        fd = FunctionalDependency("a", "b")
        assert fd.holds_approximately(Table.empty("t", ["a", "b"]), 1.0)
        assert fd.holds_exactly(Table.empty("t", ["a", "b"]))

    def test_invalid_theta_rejected(self, zip_table):
        fd = FunctionalDependency("zipcode", "state")
        with pytest.raises(QualityError):
            fd.holds_approximately(zip_table, 0.0)
        with pytest.raises(QualityError):
            fd.holds_approximately(zip_table, 1.5)

    def test_missing_attribute_means_not_holding(self, zip_table):
        assert not FunctionalDependency("zipcode", "country").holds_exactly(zip_table)
