"""Tests for the deterministic uniform hash used by correlated sampling."""

from __future__ import annotations

import statistics

from repro.sampling.hashing import uniform_hash, uniform_hashes


class TestDeterminism:
    def test_same_value_same_hash(self):
        assert uniform_hash("abc") == uniform_hash("abc")
        assert uniform_hash(42) == uniform_hash(42)

    def test_different_seeds_give_different_hashes(self):
        assert uniform_hash("abc", seed=0) != uniform_hash("abc", seed=1)

    def test_int_and_equal_float_hash_identically(self):
        assert uniform_hash(3) == uniform_hash(3.0)

    def test_bool_hashes_like_the_number_it_equals(self):
        """Values that join under dict equality must be sampled together."""
        assert uniform_hash(True) == uniform_hash(1) == uniform_hash(1.0)
        assert uniform_hash(False) == uniform_hash(0) == uniform_hash(0.0)
        assert uniform_hash(True) != uniform_hash(False)
        assert uniform_hash((True, "a")) == uniform_hash((1, "a")) == uniform_hash((1.0, "a"))
        assert uniform_hash((False, "a")) == uniform_hash((0, "a")) == uniform_hash((0.0, "a"))

    def test_none_has_a_hash(self):
        assert 0.0 <= uniform_hash(None) <= 1.0

    def test_tuples_hash_by_content(self):
        assert uniform_hash(("a", 1)) == uniform_hash(("a", 1))
        assert uniform_hash(("a", 1)) != uniform_hash(("a", 2))

    def test_nested_tuples(self):
        assert uniform_hash((("a",), 1)) == uniform_hash((("a",), 1))

    def test_arbitrary_objects_fall_back_to_repr(self):
        class Weird:
            def __repr__(self):
                return "weird-object"

        assert uniform_hash(Weird()) == uniform_hash(Weird())


class TestUniformity:
    def test_range(self):
        for value in ["a", "b", 1, 2.5, None, ("x", 1)]:
            assert 0.0 <= uniform_hash(value) <= 1.0

    def test_roughly_uniform_mean(self):
        hashes = uniform_hashes(range(2000))
        assert 0.45 <= statistics.mean(hashes) <= 0.55

    def test_roughly_uniform_quartiles(self):
        hashes = sorted(uniform_hashes(range(2000)))
        lower_quartile = hashes[len(hashes) // 4]
        upper_quartile = hashes[3 * len(hashes) // 4]
        assert 0.2 <= lower_quartile <= 0.3
        assert 0.7 <= upper_quartile <= 0.8

    def test_vector_form_matches_scalar(self):
        values = ["a", "b", "c"]
        assert uniform_hashes(values) == [uniform_hash(v) for v in values]
