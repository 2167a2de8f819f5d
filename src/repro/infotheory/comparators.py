"""Classical correlation comparators: Pearson's r and Cramér's V.

The paper motivates the entropy-based correlation measure by noting that
Pearson's coefficient only handles numerical data and association measures like
Cramér's V only handle categorical data.  These implementations are provided so
that examples and tests can contrast the entropy-based measure with the
classical ones on the same data.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Hashable, Sequence

from repro.exceptions import MeasureError


def pearson_correlation(x: Sequence[object], y: Sequence[object]) -> float:
    """Pearson's r for two aligned numeric sequences (``None`` pairs are dropped)."""
    pairs = [
        (float(a), float(b))
        for a, b in zip(x, y)
        if a is not None and b is not None
        and isinstance(a, (int, float)) and isinstance(b, (int, float))
        and not isinstance(a, bool) and not isinstance(b, bool)
    ]
    if len(pairs) < 2:
        return 0.0
    n = len(pairs)
    mean_x = sum(a for a, _ in pairs) / n
    mean_y = sum(b for _, b in pairs) / n
    var_x = sum((a - mean_x) ** 2 for a, _ in pairs)
    var_y = sum((b - mean_y) ** 2 for _, b in pairs)
    if var_x == 0.0 or var_y == 0.0:
        return 0.0
    covariance = sum((a - mean_x) * (b - mean_y) for a, b in pairs)
    # Clamp: float rounding can push perfectly-correlated data past ±1.
    return max(-1.0, min(1.0, covariance / math.sqrt(var_x * var_y)))


def cramers_v(x: Sequence[Hashable], y: Sequence[Hashable]) -> float:
    """Cramér's V association for two aligned categorical sequences, in [0, 1]."""
    if len(x) != len(y):
        raise MeasureError("cramers_v requires aligned sequences")
    n = len(x)
    if n == 0:
        return 0.0
    x_levels = sorted(set(x), key=repr)
    y_levels = sorted(set(y), key=repr)
    if len(x_levels) < 2 or len(y_levels) < 2:
        return 0.0
    joint = Counter(zip(x, y))
    x_counts = Counter(x)
    y_counts = Counter(y)

    chi2 = 0.0
    for x_level in x_levels:
        for y_level in y_levels:
            observed = joint.get((x_level, y_level), 0)
            expected = x_counts[x_level] * y_counts[y_level] / n
            if expected > 0:
                chi2 += (observed - expected) ** 2 / expected
    denominator = n * (min(len(x_levels), len(y_levels)) - 1)
    if denominator <= 0:
        return 0.0
    return math.sqrt(chi2 / denominator)
