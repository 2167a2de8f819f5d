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

from typing import Sequence

from repro.exceptions import MeasureError
from repro.infotheory.cumulative import conditional_cumulative_entropy, cumulative_entropy
from repro.infotheory.entropy import (
    conditional_entropy,
    entropy_of_counts,
    joint_entropy_of_codes,
    shannon_entropy,
)
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
    table: Table, source_attributes: Sequence[str], target_attributes: Sequence[str]
) -> float:
    """``CORR(A_S, A_T)`` measured on ``table`` (typically a join result).

    Each source attribute contributes the reduction of its own (Shannon or
    cumulative) entropy given the *joint* value of the target attributes; the
    contributions are summed.  Attributes missing from the table (e.g. pruned
    by a projection) are skipped, and an empty overlap yields 0.0.
    """
    present_sources = [a for a in source_attributes if a in table.schema]
    present_targets = [a for a in target_attributes if a in table.schema]
    if not present_sources or not present_targets or len(table) == 0:
        return 0.0

    # Operate on dictionary-encoded code columns: the target key is encoded
    # once (cached on the table) and each source contribution reduces to small
    # integer-histogram entropies instead of hashing value tuples per row.
    y_encoding = table.encoded_key(present_targets)
    h_y = entropy_of_counts(y_encoding.counts())
    total = 0.0
    for attribute in present_sources:
        x_type = table.schema.type_of(attribute)
        if x_type is AttributeType.NUMERICAL:
            x_values = table.column(attribute)
            total += cumulative_entropy(x_values) - conditional_cumulative_entropy(
                x_values, y_encoding.codes
            )
        else:
            x_encoding = table.encoded(attribute)
            h_x = entropy_of_counts(x_encoding.counts())
            h_xy = joint_entropy_of_codes(
                x_encoding.codes, y_encoding.codes, y_encoding.num_codes
            )
            total += h_x - (h_xy - h_y)
    return total


def symmetric_correlation(
    table: Table, left_attributes: Sequence[str], right_attributes: Sequence[str]
) -> float:
    """Average of ``CORR(left, right)`` and ``CORR(right, left)`` (used in examples)."""
    forward = attribute_set_correlation(table, left_attributes, right_attributes)
    backward = attribute_set_correlation(table, right_attributes, left_attributes)
    return (forward + backward) / 2.0
