"""Tests for :class:`repro.memo.Memo`, the one bounded memo of a session."""

from __future__ import annotations

import sys
import threading

from repro.memo import Memo


class TestMapping:
    def test_get_set_len_keys(self):
        memo = Memo(8)
        assert memo.get(("a",)) is None
        assert memo.get(("a",), 5) == 5
        memo[("a",)] = 1
        memo[("b", 2)] = 2
        assert memo.get(("a",)) == 1
        assert memo.keys() == [("a",), ("b", 2)]
        assert len(memo) == 2

    def test_update_merges_a_plain_dict(self):
        memo = Memo(8)
        memo.update({1: "one", 2: "two"})
        assert memo.get(1) == "one"
        assert memo.items() == [(1, "one"), (2, "two")]

    def test_pop_returns_the_value_or_the_default(self):
        memo = Memo(8)
        memo["a"] = "xyz"
        assert memo.pop("missing", "default") == "default"
        assert memo.pop("a") == "xyz"
        assert len(memo) == 0


class TestCounting:
    def test_counts_hits_and_misses(self):
        memo = Memo(8)
        assert memo.get("missing") is None
        memo["key"] = "value"
        assert memo.get("key") == "value"
        assert memo.get("key") == "value"
        assert memo.snapshot() == {"entries": 1, "hits": 2, "misses": 1}

    def test_default_value_on_miss(self):
        memo = Memo(8)
        assert memo.get("nope", 42) == 42
        assert memo.snapshot()["misses"] == 1


class TestBound:
    def test_holds_at_most_bound_entries_evicting_the_oldest(self):
        memo = Memo(3)
        for key in "abcde":
            memo[key] = key.upper()
        assert memo.keys() == ["c", "d", "e"]
        assert len(memo) == 3

    def test_a_read_does_not_refresh_an_entry(self):
        memo = Memo(3)
        memo["a"] = "x"
        memo["b"] = "y"
        memo["c"] = "z"
        assert memo.get("a") == "x"
        memo["d"] = "w"
        assert memo.keys() == ["b", "c", "d"]
        memo.pop("c")
        memo["e"] = "v"  # a freed slot is filled without an eviction
        assert memo.keys() == ["b", "d", "e"]

    def test_a_value_over_the_bound_is_not_held(self):
        memo = Memo(0)
        memo["one"] = 1  # a zero bound holds nothing and never fails
        assert memo.keys() == []
        assert memo.get("one") is None

    def test_the_first_put_under_a_key_wins(self):
        memo = Memo(10)
        memo["a"] = "x"
        memo["b"] = "yy"
        memo["a"] = "zzz"
        assert memo.items() == [("a", "x"), ("b", "yy")]


class TestCheckpoint:
    def test_items_run_oldest_first_and_a_smaller_restore_keeps_the_newest(self):
        written = Memo(6)
        for index in range(6):
            written[index] = index * 10
        blob = dict(written.items())
        assert list(blob) == list(range(6))
        restored = Memo(4)
        restored.update(blob)
        assert restored.items() == [(2, 20), (3, 30), (4, 40), (5, 50)]
        assert len(restored) == 4


def test_threads_keep_the_bound():
    """Eight threads put, read and pop overlapping keys of a memo that must
    evict on most puts, with the interpreter switching threads every 1 µs;
    every value is a function of its key, so every hit must return it, and
    the memo must never hold more than its bound."""
    memo = Memo(5)
    errors: list[BaseException] = []

    def work(thread: int) -> None:
        try:
            for step in range(6000):
                key = (thread * 7 + step) % 23
                value = memo.get(key)
                if value is None:
                    memo[key] = key * 2
                    if len(memo) > 5:
                        raise AssertionError(f"{len(memo)} entries held")
                elif value != key * 2:
                    raise AssertionError(f"{key} held {value}")
                if step % 11 == 0:
                    memo.pop((key + 5) % 23)
        except BaseException as error:  # dancelint: disable=ERR301 -- asserted below
            errors.append(error)

    threads = [threading.Thread(target=work, args=(index,)) for index in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    items = memo.items()
    assert all(value == key * 2 for key, value in items)
    assert len(items) <= 5
