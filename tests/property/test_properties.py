"""Hypothesis property-based tests on the core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infotheory.correlation import correlation
from repro.infotheory.cumulative import conditional_cumulative_entropy, cumulative_entropy
from repro.infotheory.entropy import (
    conditional_entropy,
    joint_entropy,
    mutual_information,
    shannon_entropy,
)
from repro.infotheory.join_informativeness import join_informativeness_from_pairs
from repro.quality.fd import FunctionalDependency
from repro.quality.measure import instance_quality
from repro.relational.schema import AttributeType
from repro.relational.joins import inner_join
from repro.relational.table import Table
from repro.sampling.correlated import correlated_sample
from repro.sampling.hashing import uniform_hash

# ---------------------------------------------------------------------- values
symbols = st.sampled_from(["a", "b", "c", "d", "e"])
symbol_lists = st.lists(symbols, min_size=1, max_size=60)
paired_symbol_lists = st.integers(min_value=1, max_value=50).flatmap(
    lambda n: st.tuples(
        st.lists(symbols, min_size=n, max_size=n),
        st.lists(symbols, min_size=n, max_size=n),
    )
)
float_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=50,
)
hashable_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)


# -------------------------------------------------------------------- entropy
class TestEntropyProperties:
    @given(symbol_lists)
    def test_shannon_entropy_non_negative_and_bounded(self, values):
        import math

        entropy = shannon_entropy(values)
        assert entropy >= 0.0
        assert entropy <= math.log2(len(set(values))) + 1e-9

    @given(paired_symbol_lists)
    def test_conditioning_never_increases_entropy(self, pair):
        x, y = pair
        assert conditional_entropy(x, y) <= shannon_entropy(x) + 1e-9

    @given(paired_symbol_lists)
    def test_mutual_information_symmetric(self, pair):
        x, y = pair
        assert abs(mutual_information(x, y) - mutual_information(y, x)) < 1e-9

    @given(paired_symbol_lists)
    def test_joint_entropy_bounds(self, pair):
        x, y = pair
        joint = joint_entropy(x, y)
        assert joint >= max(shannon_entropy(x), shannon_entropy(y)) - 1e-9
        assert joint <= shannon_entropy(x) + shannon_entropy(y) + 1e-9

    @given(float_lists)
    def test_cumulative_entropy_non_negative(self, values):
        assert cumulative_entropy(values) >= -1e-9

    @given(paired_symbol_lists)
    def test_correlation_non_negative_categorical(self, pair):
        x, y = pair
        assert correlation(x, y, x_type=AttributeType.CATEGORICAL) >= -1e-9

    @given(paired_symbol_lists)
    def test_join_informativeness_bounds(self, pair):
        x, y = pair
        assert 0.0 <= join_informativeness_from_pairs(x, y) <= 1.0

    @given(
        st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            min_size=2,
            max_size=40,
        ),
        st.lists(symbols, min_size=2, max_size=40),
    )
    def test_conditional_cumulative_entropy_not_exceeding_marginal(self, xs, ys):
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        assert conditional_cumulative_entropy(xs, ys) <= cumulative_entropy(xs) + 1e-6


# -------------------------------------------------------------------- hashing
class TestHashingProperties:
    @given(hashable_values)
    def test_hash_in_unit_interval(self, value):
        assert 0.0 <= uniform_hash(value) <= 1.0

    @given(hashable_values, st.integers(min_value=0, max_value=10))
    def test_hash_deterministic(self, value, seed):
        assert uniform_hash(value, seed) == uniform_hash(value, seed)


# ---------------------------------------------------------------------- joins
table_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), st.sampled_from(["x", "y", "z"])),
    min_size=0,
    max_size=30,
)


class TestJoinProperties:
    @given(table_rows, table_rows)
    @settings(max_examples=40)
    def test_inner_join_commutative_in_size(self, left_rows, right_rows):
        left = Table.from_rows("l", ["k", "a"], left_rows)
        right = Table.from_rows("r", ["k", "b"], right_rows)
        assert len(inner_join(left, right)) == len(inner_join(right, left))

    @given(table_rows)
    @settings(max_examples=40)
    def test_projection_preserves_row_count(self, rows):
        table = Table.from_rows("t", ["k", "a"], rows)
        assert len(table.project(["a"])) == len(table)


# ------------------------------------------------------------------- sampling
class TestSamplingProperties:
    @given(
        table_rows,
        st.floats(min_value=0.1, max_value=1.0),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40)
    def test_sample_is_subset_of_table(self, rows, rate, seed):
        table = Table.from_rows("t", ["k", "a"], rows)
        sample = correlated_sample(table, ["k"], rate, seed=seed)
        assert len(sample) <= len(table)
        original = table.value_counts(["k", "a"])
        for key, count in sample.value_counts(["k", "a"]).items():
            assert count <= original[key]

    @given(table_rows, st.integers(min_value=0, max_value=5))
    @settings(max_examples=40)
    def test_rate_one_is_identity(self, rows, seed):
        table = Table.from_rows("t", ["k", "a"], rows)
        assert len(correlated_sample(table, ["k"], 1.0, seed=seed)) == len(table)


# -------------------------------------------------------------------- quality
class TestQualityProperties:
    @given(table_rows)
    @settings(max_examples=40)
    def test_quality_in_unit_interval(self, rows):
        table = Table.from_rows("t", ["k", "a"], rows)
        quality = instance_quality(table, FunctionalDependency("k", "a"))
        assert 0.0 <= quality <= 1.0

    @given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["x", "y"])), min_size=1, max_size=30))
    @settings(max_examples=40)
    def test_quality_at_least_number_of_groups_over_rows(self, rows):
        """Each LHS group contributes at least one correct row."""
        table = Table.from_rows("t", ["k", "a"], rows)
        quality = instance_quality(table, FunctionalDependency("k", "a"))
        groups = table.distinct_count(["k"])
        assert quality >= groups / len(table) - 1e-9
