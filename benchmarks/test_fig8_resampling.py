"""Figure 8: correlation with vs without correlated re-sampling (TPC-H-like).

Shape to reproduce: the correlation estimated with re-sampling oscillates
around the estimate without re-sampling, and the difference shrinks as the
re-sampling rate grows.  The paper proves the estimator unbiased; here one
re-sampled draw is biased, so the difference holds bias and noise, and both
shrink as the rate grows (see ``repro.experiments.fig8``).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_rows
from repro.experiments.fig8 import run_fig8

KEYS = (
    "query",
    "resampling_rate",
    "correlation_with_resampling",
    "correlation_without_resampling",
    "difference",
)

RATES = (0.1, 0.3, 0.5, 0.7, 0.9)


@pytest.fixture(scope="module")
def fig8_rows():
    return run_fig8(
        query_names=("Q1", "Q2", "Q3"),
        resampling_rates=RATES,
        resampling_threshold=40,
        scale=0.1,
        mcmc_iterations=40,
    )


def test_fig8_rows(benchmark, fig8_rows):
    benchmark.pedantic(lambda: fig8_rows, rounds=1, iterations=1)
    print_rows("Figure 8: correlation with vs without re-sampling", fig8_rows, KEYS)
    assert len(fig8_rows) == 15


def test_fig8_resampled_estimate_stays_in_range(fig8_rows):
    """Per query, the *average* re-sampled estimate stays in the baseline's ballpark.

    Individual rates can be noisy (re-sampling a small intermediate join is a
    high-variance operation), but the per-query average should not drift to an
    absurd multiple of the no-re-sampling estimate.
    """
    for query in ("Q1", "Q2", "Q3"):
        rows = [row for row in fig8_rows if row["query"] == query]
        baseline = rows[0]["correlation_without_resampling"]
        average = sum(row["correlation_with_resampling"] for row in rows) / len(rows)
        assert average >= 0.0
        if baseline > 0:
            assert average <= baseline * 4.0 + 2.0


def test_fig8_difference_bounded(fig8_rows):
    """The absolute difference stays bounded relative to the baseline estimate."""
    for query in ("Q1", "Q2", "Q3"):
        rows = [row for row in fig8_rows if row["query"] == query]
        baseline = rows[0]["correlation_without_resampling"]
        tolerance = 2.0 * max(1.0, baseline)
        average_difference = sum(row["difference"] for row in rows) / len(rows)
        assert average_difference <= tolerance


def test_fig8_high_rate_close_to_baseline(fig8_rows):
    """At re-sampling rate 0.9 the two estimates are close on average."""
    high_rate = [row for row in fig8_rows if row["resampling_rate"] == RATES[-1]]
    low_rate = [row for row in fig8_rows if row["resampling_rate"] == RATES[0]]
    avg_high = sum(row["difference"] for row in high_rate) / len(high_rate)
    avg_low = sum(row["difference"] for row in low_rate) / len(low_rate)
    assert avg_high <= avg_low + 0.5
