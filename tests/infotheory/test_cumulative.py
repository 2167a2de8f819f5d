"""Tests for cumulative entropy (numerical-attribute correlation support)."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import MeasureError
from repro.infotheory.cumulative import (
    conditional_cumulative_entropy,
    cumulative_entropy,
    cumulative_mutual_information,
)

INF = float("inf")
NAN = float("nan")


class TestCumulativeEntropy:
    def test_constant_sample_is_zero(self):
        assert cumulative_entropy([5.0, 5.0, 5.0]) == 0.0

    def test_empty_and_singleton_are_zero(self):
        assert cumulative_entropy([]) == 0.0
        assert cumulative_entropy([3.0]) == 0.0

    def test_positive_for_spread_sample(self):
        assert cumulative_entropy([0.0, 1.0, 2.0, 3.0]) > 0.0

    def test_scaling_property(self):
        # Cumulative entropy scales linearly with the data scale.
        base = cumulative_entropy([0.0, 1.0, 2.0, 3.0])
        scaled = cumulative_entropy([0.0, 2.0, 4.0, 6.0])
        assert scaled == pytest.approx(2.0 * base)

    def test_translation_invariance(self):
        base = cumulative_entropy([0.0, 1.0, 2.0])
        shifted = cumulative_entropy([10.0, 11.0, 12.0])
        assert shifted == pytest.approx(base)

    def test_none_values_dropped(self):
        assert cumulative_entropy([None, 1.0, 2.0]) == pytest.approx(
            cumulative_entropy([1.0, 2.0])
        )

    def test_non_numeric_raises(self):
        with pytest.raises(ValueError):
            cumulative_entropy(["a", "b"])

    def test_integers_accepted(self):
        assert cumulative_entropy([1, 2, 3]) > 0.0

    def test_repeated_values_add_a_term_per_run(self):
        # Sorted [1, 1, 2, 2]: the only non-zero gap sits after two of four.
        assert cumulative_entropy([2.0, 1.0, 2.0, 1.0]) == 0.5 * math.log(2)
        assert cumulative_entropy([0.0, 1.0, 1.0, 3.0]).hex() == "0x1.8e62b0c64c1a5p-1"

    def test_ints_bools_and_floats_mix_as_their_floats(self):
        mixed = cumulative_entropy([1, 2.0, True, 3])
        assert mixed.hex() == cumulative_entropy([1.0, 1.0, 2.0, 3.0]).hex()
        assert mixed.hex() == "0x1.1fea645f0ef4ep-1"

    def test_the_sign_of_zero_does_not_matter(self):
        expected = cumulative_entropy([0.0, 0.0, 1.0]).hex()
        assert cumulative_entropy([-0.0, 0.0, 1.0]).hex() == expected
        assert cumulative_entropy([0.0, -0.0, 1.0]).hex() == expected
        assert expected == "0x1.14cc29dd51033p-2"

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([1.5, INF], INF),
            ([-INF, 0.0], INF),
            ([-INF, INF], INF),
            # inf - inf between equal infinities is NaN, and NaN poisons the sum
            ([1.5, INF, INF], NAN),
            ([-INF, -INF, 0.0], NAN),
            ([NAN, 1.0, 2.0], NAN),
            ([1.0, NAN, 2.0], NAN),
        ],
    )
    def test_non_finite_values(self, values, expected):
        assert cumulative_entropy(values).hex() == expected.hex()

    @pytest.mark.parametrize("values", [[10**400, 1], [10**400, 1.0], [None, -(10**400)]])
    def test_an_int_beyond_float_range_is_a_measure_error(self, values):
        with pytest.raises(MeasureError, match="float range"):
            cumulative_entropy(values)


class TestConditionalCumulativeEntropy:
    def test_perfect_grouping_reduces_to_zero(self):
        x = [1.0, 1.0, 5.0, 5.0]
        y = ["a", "a", "b", "b"]
        assert conditional_cumulative_entropy(x, y) == pytest.approx(0.0)

    def test_uninformative_grouping_keeps_entropy(self):
        x = [1.0, 5.0, 1.0, 5.0]
        y = ["a", "a", "b", "b"]
        conditional = conditional_cumulative_entropy(x, y)
        assert conditional > 0.0

    def test_conditioning_never_increases_much(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        y = ["a", "b", "a", "b", "a", "b"]
        assert conditional_cumulative_entropy(x, y) <= cumulative_entropy(x) + 1e-9

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            conditional_cumulative_entropy([1.0], ["a", "b"])

    def test_empty_sequences(self):
        assert conditional_cumulative_entropy([], []) == 0.0


class TestCumulativeMutualInformation:
    def test_informative_grouping_has_positive_cmi(self):
        x = [1.0, 1.1, 5.0, 5.1]
        y = ["lo", "lo", "hi", "hi"]
        assert cumulative_mutual_information(x, y) > 0.0

    def test_self_grouping_recovers_full_entropy(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert cumulative_mutual_information(x, x) == pytest.approx(cumulative_entropy(x))
