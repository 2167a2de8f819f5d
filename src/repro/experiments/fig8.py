"""Figure 8: estimated correlation with vs without correlated re-sampling.

For re-sampling rates 0.1–0.9 (and queries Q1/Q2/Q3 on TPC-H), the correlation
estimated by the heuristic *with* re-sampling of intermediate join results is
compared to the estimate *without* re-sampling.  The paper's expected shape:
the re-sampled estimate oscillates around the non-re-sampled one and converges
to it as the re-sampling rate grows, because the estimator is unbiased at every
rate.  Here one re-sampled draw is biased, with a sign that depends on the
graph (68% to 146% above on fresh-tpch's fired Q1 graphs, 2.3% below on a test
chain; see :mod:`repro.sampling.resampling`), so a row's difference mixes that
bias with the draw's noise.  Both shrink as the rate grows.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import prepare_setup
from repro.sampling.resampling import ResamplingPolicy


def run_fig8(
    *,
    query_names: Sequence[str] = ("Q1", "Q2", "Q3"),
    resampling_rates: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    resampling_threshold: int = 15,
    scale: float = 0.15,
    sampling_rate: float = 0.7,
    budget_ratio: float = 0.9,
    mcmc_iterations: int = 60,
    seed: int = 0,
) -> list[dict[str, object]]:
    """One row per (query, re-sampling rate): estimated correlation with / without re-sampling."""
    rows: list[dict[str, object]] = []
    for query_name in query_names:
        setup = prepare_setup(
            "tpch",
            query_name,
            scale=scale,
            sampling_rate=sampling_rate,
            mcmc_iterations=mcmc_iterations,
            seed=seed,
        )
        budget = setup.budget_for_ratio(budget_ratio)

        baseline = setup.run_heuristic(budget=budget)
        baseline_corr = (
            baseline.best_evaluation.correlation if baseline.best_evaluation else 0.0
        )

        for rate in resampling_rates:
            policy = ResamplingPolicy(threshold=resampling_threshold, rate=rate, seed=seed)
            with_resampling = setup.run_heuristic(budget=budget, intermediate_hook=policy)
            with_corr = (
                with_resampling.best_evaluation.correlation
                if with_resampling.best_evaluation
                else 0.0
            )
            rows.append(
                {
                    "query": query_name,
                    "resampling_rate": rate,
                    "correlation_with_resampling": with_corr,
                    "correlation_without_resampling": baseline_corr,
                    "difference": abs(with_corr - baseline_corr),
                }
            )
    return rows
