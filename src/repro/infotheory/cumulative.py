"""Cumulative entropy for numerical attributes.

The paper follows Nguyen et al. (SSDBM 2014) and measures the "entropy" of a
numerical attribute ``X`` with the *cumulative entropy*

    h(X) = - integral P(X <= x) log P(X <= x) dx,

estimated from the empirical CDF of the observed values.  The conditional
cumulative entropy ``h(X | Y)`` averages ``h(X | y)`` over the conditioning
groups (``Y`` is treated as categorical / discretised).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Hashable, Sequence

from repro.exceptions import MeasureError


def _clean_numeric(values: Sequence[object]) -> list[float]:
    kinds = set(map(type, values))
    if kinds == {float} or kinds == {int}:
        # One numeric type throughout: nothing to drop, no per-value checks.
        numbers = values
    else:
        numbers = []
        for value in values:
            if value is None:
                continue
            if not isinstance(value, (int, float)):  # bools are ints
                raise MeasureError(
                    f"cumulative entropy requires numeric values, got {value!r}"
                )
            numbers.append(value)
    try:
        return list(map(float, numbers))
    except OverflowError:
        raise MeasureError(
            "cumulative entropy requires values a float can hold, got an int beyond "
            "float range"
        ) from None


def cumulative_entropy(values: Sequence[object]) -> float:
    """Empirical cumulative entropy of a numerical sample.

    Uses the standard estimator over the order statistics ``x_(1) <= ... <= x_(n)``:

        h(X) ≈ - Σ_{i=1}^{n-1} (x_(i+1) - x_(i)) * (i/n) * log(i/n)

    The result is non-negative, 0 for constant (or empty) samples, and grows
    with the spread of the distribution.
    """
    cleaned = sorted(_clean_numeric(values))
    n = len(cleaned)
    if n < 2:
        return 0.0
    total = 0.0
    for i in range(1, n):
        gap = cleaned[i] - cleaned[i - 1]
        if gap <= 0.0:
            continue
        p = i / n
        total -= gap * p * math.log(p)
    return total


def conditional_cumulative_entropy(
    x: Sequence[object], y: Sequence[Hashable]
) -> float:
    """Conditional cumulative entropy ``h(X | Y) = Σ_y p(y) h(X | Y=y)``.

    ``X`` must be numeric; ``Y`` is grouped on exact values (categorical or
    already-discretised numeric values).  Rows where ``X`` is ``None`` are
    dropped from their group.
    """
    if len(x) != len(y):
        raise MeasureError("conditional_cumulative_entropy requires aligned sequences")
    groups: dict[Hashable, list[object]] = defaultdict(list)
    for x_value, y_value in zip(x, y):
        groups[y_value].append(x_value)
    total_rows = len(x)
    if total_rows == 0:
        return 0.0
    result = 0.0
    for group_values in groups.values():
        weight = len(group_values) / total_rows
        result += weight * cumulative_entropy(group_values)
    return result


def cumulative_mutual_information(x: Sequence[object], y: Sequence[Hashable]) -> float:
    """``h(X) - h(X | Y)``: how much knowing ``Y`` shrinks the spread of ``X`` (>= 0 up to noise)."""
    return cumulative_entropy(x) - conditional_cumulative_entropy(x, y)
