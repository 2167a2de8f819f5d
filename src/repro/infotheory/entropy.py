"""Shannon entropy, conditional entropy and mutual information.

All functions operate either on raw value sequences (hashable values, ``None``
allowed and treated as a regular symbol), directly on count histograms, or —
for the hot-path kernels — on dictionary-encoded integer code columns (see
:class:`repro.relational.table.ColumnEncoding`).  The code-based kernels avoid
hashing arbitrary values row by row: a joint histogram of two code columns is
built over small dense integers, which is what makes the MCMC evaluation loop
cheap.  Entropies are measured in bits (log base 2); the choice of base cancels
in the correlation and join-informativeness ratios, but bits make the unit
tests easy to reason about.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Hashable, Iterable, Mapping, Sequence

from repro.exceptions import MeasureError


def entropy_of_counts(counts: Iterable[int]) -> float:
    """Shannon entropy (bits) of a histogram of non-negative counts."""
    counts = [count for count in counts if count > 0]
    total = sum(counts)
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts:
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def shannon_entropy(values: Sequence[Hashable]) -> float:
    """Shannon entropy (bits) of the empirical distribution of ``values``."""
    return entropy_of_counts(Counter(values).values())


def joint_entropy(*value_sequences: Sequence[Hashable]) -> float:
    """Entropy of the joint empirical distribution of several aligned sequences."""
    if not value_sequences:
        return 0.0
    length = len(value_sequences[0])
    for seq in value_sequences:
        if len(seq) != length:
            raise MeasureError("joint_entropy requires sequences of equal length")
    return shannon_entropy(list(zip(*value_sequences)))


def conditional_entropy(x: Sequence[Hashable], y: Sequence[Hashable]) -> float:
    """Conditional entropy ``H(X | Y)`` of aligned sequences, in bits.

    Computed as ``H(X, Y) - H(Y)``, which equals the paper's
    ``sum_y p(y) H(X | y)``.
    """
    if len(x) != len(y):
        raise MeasureError("conditional_entropy requires sequences of equal length")
    return joint_entropy(x, y) - shannon_entropy(y)


def mutual_information(x: Sequence[Hashable], y: Sequence[Hashable]) -> float:
    """Mutual information ``I(X; Y) = H(X) + H(Y) - H(X, Y)`` in bits (clamped at 0)."""
    if len(x) != len(y):
        raise MeasureError("mutual_information requires sequences of equal length")
    value = shannon_entropy(x) + shannon_entropy(y) - joint_entropy(x, y)
    return max(0.0, value)


def normalized_mutual_information(x: Sequence[Hashable], y: Sequence[Hashable]) -> float:
    """``I(X; Y) / H(X, Y)``, in [0, 1]; 0 when the joint entropy is 0."""
    joint = joint_entropy(x, y)
    if joint <= 0.0:
        return 0.0
    return mutual_information(x, y) / joint


def counts_of_codes(codes: Sequence[int], num_codes: int) -> list[int]:
    """Histogram of a dictionary-encoded code column (codes in ``[0, num_codes)``)."""
    counts = [0] * num_codes
    for code in codes:
        counts[code] += 1
    return counts


def entropy_of_codes(codes: Sequence[int], num_codes: int) -> float:
    """Shannon entropy (bits) of a code column, equal to ``shannon_entropy`` on the values."""
    return entropy_of_counts(counts_of_codes(codes, num_codes))


def joint_code_counts(
    x_codes: Sequence[int], y_codes: Sequence[int], y_num_codes: int
) -> dict[int, int]:
    """Histogram of the aligned pair column ``(x, y)``, keyed by ``x * |y| + y``.

    The combined integer key identifies the value pair uniquely, so the counts
    equal the histogram of ``zip(x_values, y_values)`` without building tuples.
    """
    counts: dict[int, int] = {}
    for x_code, y_code in zip(x_codes, y_codes):
        key = x_code * y_num_codes + y_code
        counts[key] = counts.get(key, 0) + 1
    return counts


def joint_entropy_of_codes(
    x_codes: Sequence[int], y_codes: Sequence[int], y_num_codes: int
) -> float:
    """``H(X, Y)`` in bits from two aligned code columns."""
    if len(x_codes) != len(y_codes):
        raise MeasureError("joint_entropy_of_codes requires aligned code columns")
    return entropy_of_counts(joint_code_counts(x_codes, y_codes, y_num_codes).values())


def entropy_of_distribution(
    probabilities: Mapping[Hashable, float] | Iterable[float],
) -> float:
    """Entropy of an explicit probability distribution (must sum to ~1)."""
    if isinstance(probabilities, Mapping):
        probs = list(probabilities.values())
    else:
        probs = list(probabilities)
    total = sum(probs)
    if total <= 0:
        return 0.0
    entropy = 0.0
    for p in probs:
        if p <= 0:
            continue
        p = p / total
        entropy -= p * math.log2(p)
    return entropy
