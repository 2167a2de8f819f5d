"""Mixed-type correlation measure (Definition 2.5 of the paper).

``CORR(X, Y)`` quantifies how much the attribute set ``Y`` reduces the
uncertainty of the attribute set ``X``:

* if ``X`` is categorical:  ``CORR(X, Y) = H(X) - H(X | Y)``  (Shannon entropy);
* if ``X`` is numerical:    ``CORR(X, Y) = h(X) - h(X | Y)``  (cumulative entropy).

When ``X`` contains several attributes the paper treats them jointly; for a
mixed attribute set we sum the per-attribute contributions (each attribute of
``X`` conditioned on the full ``Y``), which degrades gracefully to the paper's
definition when ``X`` is homogeneous and single-attribute.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.exceptions import MeasureError
from repro.infotheory.cumulative import conditional_cumulative_entropy, cumulative_entropy
from repro.infotheory.entropy import (
    conditional_entropy,
    entropy_of_counts,
    joint_entropy_of_codes,
    shannon_entropy,
)
from repro.relational.joins import Relation
from repro.relational.partitions import column_codes, combined_keys
from repro.relational.schema import AttributeType
from repro.relational.table import Table


def correlation(
    x_values: Sequence[object],
    y_values: Sequence[object],
    *,
    x_type: AttributeType = AttributeType.CATEGORICAL,
) -> float:
    """``CORR(X, Y)`` for one ``X`` column and one (possibly tuple-valued) ``Y`` column."""
    if len(x_values) != len(y_values):
        raise MeasureError("correlation requires aligned sequences")
    if x_type is AttributeType.NUMERICAL:
        return cumulative_entropy(x_values) - conditional_cumulative_entropy(
            x_values, y_values
        )
    return shannon_entropy(x_values) - conditional_entropy(x_values, y_values)


def attribute_set_correlation(
    table: Relation, source_attributes: Sequence[str], target_attributes: Sequence[str]
) -> float:
    """``CORR(A_S, A_T)`` measured on ``table`` (typically a join result).

    Each source attribute contributes the reduction of its own (Shannon or
    cumulative) entropy given the *joint* value of the target attributes; the
    contributions are summed.  Attributes missing from the table (e.g. pruned
    by a projection) are skipped, and an empty overlap yields 0.0.
    ``table`` is a table or a row-vector join: both are read through their
    dictionary codes (:func:`~repro.relational.partitions.column_codes`),
    and values are read only for numerical sources.
    """
    present_sources = [a for a in source_attributes if a in table.schema]
    present_targets = [a for a in target_attributes if a in table.schema]
    if not present_sources or not present_targets or len(table) == 0:
        return 0.0

    # Operate on dictionary codes: the target key is combined once from its
    # columns' codes, and each source contribution reduces to small
    # integer-histogram entropies instead of hashing value tuples per row.
    # Counts come in first-occurrence order, as a dense encoding's counts()
    # lists them, so every float sum runs in the same order whether the
    # codes are a table's or gathered by a row-vector join.
    y_keys, y_radix = combined_keys([column_codes(table, a) for a in present_targets])
    h_y = entropy_of_counts(Counter(y_keys).values())
    total = 0.0
    for attribute in present_sources:
        x_type = table.schema.type_of(attribute)
        if x_type is AttributeType.NUMERICAL:
            x_values = table.column(attribute)
            total += cumulative_entropy(x_values) - conditional_cumulative_entropy(
                x_values, y_keys
            )
        else:
            x_codes = column_codes(table, attribute)[0]
            h_x = entropy_of_counts(Counter(x_codes).values())
            h_xy = joint_entropy_of_codes(x_codes, y_keys, y_radix)
            total += h_x - (h_xy - h_y)
    return total


def symmetric_correlation(
    table: Table, left_attributes: Sequence[str], right_attributes: Sequence[str]
) -> float:
    """Average of ``CORR(left, right)`` and ``CORR(right, left)`` (used in examples)."""
    forward = attribute_set_correlation(table, left_attributes, right_attributes)
    backward = attribute_set_correlation(table, right_attributes, left_attributes)
    return (forward + backward) / 2.0
