"""Nearest-rank percentiles, the ten-beyond rule, answer digests and speed scaling."""

import pytest

from perfbench import stats


def test_nearest_rank_picks_the_ceiling_rank():
    values = [float(value) for value in range(1, 11)]  # 1..10
    assert stats.percentile(values, 0.5) == 5.0
    assert stats.percentile(values, 0.95) == 10.0
    assert stats.percentile(values, 0.1) == 1.0
    assert stats.percentile(list(reversed(values)), 0.51) == 6.0


def test_rank_is_exact_at_integer_products():
    # 0.95 * 200 is 190 up to float error; the rank must not round up to 191.
    assert stats.rank(0.95, 200) == 190
    assert stats.rank(0.5, 1) == 1
    assert stats.rank(1.0, 7) == 7


def test_p95_needs_two_hundred_samples_for_ten_beyond():
    assert stats.beyond(0.95, 200) == 10
    assert stats.beyond(0.95, 199) == 9
    assert stats.beyond(0.5, 20) == 10
    values = list(range(199))
    with pytest.raises(ValueError):
        stats.percentile(values, 0.95, min_beyond=stats.MIN_BEYOND)
    assert stats.percentile(values + [199], 0.95, min_beyond=stats.MIN_BEYOND) == 189


def test_failed_requests_miss_every_limit():
    latencies = [0.001] * 190 + [float("inf")] * 10
    assert stats.percentile(latencies, 0.95) == 0.001
    assert stats.percentile(latencies + [float("inf")], 0.95) == float("inf")


def test_digest_ignores_arrival_order_and_sees_every_bit():
    first = stats.answer_key(0.5, 10.0, ["SELECT a FROM t"])
    second = stats.answer_key(0.25, 3.0, ["SELECT b FROM u"])
    assert stats.digest([(1, first), (2, second)]) == stats.digest([(2, second), (1, first)])
    nudged = stats.answer_key(0.5 + 2**-52, 10.0, ["SELECT a FROM t"])
    assert stats.digest([(1, nudged), (2, second)]) != stats.digest([(1, first), (2, second)])


def test_times_scale_by_the_speed_sample_taken_after_them():
    from perfbench.workloads import Op, Phase, speed_factor

    def factor(sample):
        return speed_factor(sample, 1.4)

    phase = Phase(speed_exponent=1.4)
    phase.add_read(Op(0, "read"), 0.010)  # slot 0
    phase.witness, phase.witness_clock = [3.0], [0.5]
    phase.add_read(Op(1, "read"), 0.020)  # slot 1
    phase.add_write(0.100)  # slot 1
    phase.witness.append(1.5)
    phase.witness_clock.append(2.0)
    assert phase.scaled_reads() == pytest.approx([0.010 * factor(3.0), 0.020 * factor(1.5)])
    # A write by the mean of the samples either side of it, with exponent 1.
    assert phase.scaled_writes() == pytest.approx([0.100 * speed_factor(2.25, 1.0)])
    # Each stretch of the phase clock by the sample that ends it.
    assert phase.scaled_wall() == pytest.approx(0.5 * factor(3.0) + 1.5 * factor(1.5))
    assert phase.op_seconds() == pytest.approx({0: 0.010 * factor(3.0), 1: 0.020 * factor(1.5)})


def test_a_slower_sample_scales_a_time_down():
    from perfbench.workloads import WITNESS_REFERENCE_MS, speed_factor

    assert speed_factor(WITNESS_REFERENCE_MS, 1.4) == 1.0
    slow, fast = 2 * WITNESS_REFERENCE_MS, WITNESS_REFERENCE_MS / 2
    assert speed_factor(slow, 1.4) < speed_factor(slow, 1.0) < 1.0 < speed_factor(fast, 1.0)
