"""Order statistics and answer digests used by the benchmark.

Percentiles are nearest-rank (the same rule ``repro.service.metrics`` uses):
the q-th percentile of n ascending samples is the sample at rank
``ceil(q * n)``.  A percentile is only reported when at least ``MIN_BEYOND``
samples lie strictly above its rank, so a p95 needs 200 samples.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Sequence

#: Samples that must lie beyond a reported percentile's rank.
MIN_BEYOND = 10


def rank(quantile: float, count: int) -> int:
    """1-based nearest rank of ``quantile`` among ``count`` sorted samples."""
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    if count < 1:
        raise ValueError("a percentile needs at least one sample")
    return max(1, min(count, math.ceil(quantile * count - 1e-9)))


def beyond(quantile: float, count: int) -> int:
    """How many of ``count`` samples lie strictly beyond the percentile's rank."""
    return count - rank(quantile, count)


def percentile(values: Iterable[float], quantile: float, *, min_beyond: int = 0) -> float:
    """Nearest-rank percentile; raises when fewer than ``min_beyond`` lie beyond it."""
    ordered = sorted(values)
    position = rank(quantile, len(ordered))
    if len(ordered) - position < min_beyond:
        raise ValueError(
            f"p{quantile * 100:g} of {len(ordered)} samples has only "
            f"{len(ordered) - position} beyond it (need {min_beyond})"
        )
    return ordered[position - 1]


def answer_key(correlation: float, price: float, sql: Sequence[str]) -> tuple:
    """The bits of one served answer that the benchmark compares and digests."""
    return (float(correlation).hex(), float(price).hex(), tuple(sql))


def digest(keyed_answers: Iterable[tuple[object, tuple]]) -> str:
    """blake2b over ``(request id, answer key)`` pairs, in request-id order."""
    hasher = hashlib.blake2b(digest_size=16)
    for request_id, key in sorted(keyed_answers, key=lambda item: repr(item[0])):
        hasher.update(repr((request_id, key)).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()
