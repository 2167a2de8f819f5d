"""Tests for TANE-style AFD discovery."""

from __future__ import annotations

import pytest

from repro.exceptions import QualityError
from repro.quality.discovery import count_afds_per_table, discover_afds
from repro.quality.fd import FunctionalDependency
from repro.relational.table import Table


@pytest.fixture
def employee_table() -> Table:
    """dept -> manager holds exactly; name is a key; salary determined by nothing."""
    rows = [
        ("alice", "eng", "dan", 100),
        ("bob", "eng", "dan", 110),
        ("carol", "sales", "eve", 90),
        ("dave", "sales", "eve", 95),
        ("erin", "hr", "fay", 80),
    ]
    return Table.from_rows("employees", ["name", "dept", "manager", "salary"], rows)


class TestDiscovery:
    def test_finds_planted_fd(self, employee_table):
        fds = discover_afds(employee_table, max_violation=0.0, max_lhs_size=1)
        assert FunctionalDependency("dept", "manager") in fds
        assert FunctionalDependency("manager", "dept") in fds

    def test_key_determines_everything(self, employee_table):
        fds = discover_afds(employee_table, max_violation=0.0, max_lhs_size=1)
        rhs_of_name = {fd.rhs for fd in fds if fd.lhs == ("name",)}
        assert rhs_of_name == {"dept", "manager", "salary"}

    def test_minimality_pruning(self, employee_table):
        fds = discover_afds(employee_table, max_violation=0.0, max_lhs_size=2)
        # dept -> manager is minimal, so (dept, salary) -> manager must not be reported
        assert FunctionalDependency(("dept", "salary"), "manager") not in fds
        assert FunctionalDependency("dept", "manager") in fds

    def test_approximate_threshold(self, zip_table):
        strict = discover_afds(zip_table, max_violation=0.0, max_lhs_size=1)
        relaxed = discover_afds(zip_table, max_violation=0.3, max_lhs_size=1)
        assert FunctionalDependency("zipcode", "state") not in strict
        assert FunctionalDependency("zipcode", "state") in relaxed

    @pytest.mark.parametrize(
        "b_values, max_violation",
        [
            # 3 of 10 rows violate; 1.0 - 7/10 is 0.30000000000000004
            ([1] * 7 + [2, 3, 4], 0.3),
            # 1 of 10 rows violates, the paper's theta
            ([1] * 9 + [2], 0.1),
        ],
    )
    def test_violation_rate_on_the_threshold_is_reported(self, b_values, max_violation):
        table = Table.from_rows("t", ["a", "b"], [("x", b) for b in b_values])
        fds = discover_afds(table, max_violation=max_violation, max_lhs_size=1)
        assert FunctionalDependency("a", "b") in fds

    def test_empty_table(self):
        assert discover_afds(Table.empty("t", ["a", "b"])) == []

    def test_restricted_attributes(self, employee_table):
        fds = discover_afds(
            employee_table, max_violation=0.0, max_lhs_size=1, attributes=["dept", "manager"]
        )
        assert all(set(fd.attributes) <= {"dept", "manager"} for fd in fds)

    def test_invalid_parameters(self, employee_table):
        with pytest.raises(QualityError):
            discover_afds(employee_table, max_violation=1.0)
        with pytest.raises(QualityError):
            discover_afds(employee_table, max_lhs_size=0)

    def test_deterministic_order(self, employee_table):
        first = discover_afds(employee_table, max_violation=0.0, max_lhs_size=2)
        second = discover_afds(employee_table, max_violation=0.0, max_lhs_size=2)
        assert first == second


class TestCountPerTable:
    def test_counts(self, employee_table, zip_table):
        counts = count_afds_per_table(
            [employee_table, zip_table], max_violation=0.0, max_lhs_size=1
        )
        assert set(counts) == {"employees", "d1_zip"}
        assert counts["employees"] > 0
