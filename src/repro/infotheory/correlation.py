"""Mixed-type correlation measure (Definition 2.5 of the paper).

``CORR(X, Y)`` quantifies how much the attribute set ``Y`` reduces the
uncertainty of the attribute set ``X``:

* if ``X`` is categorical:  ``CORR(X, Y) = H(X) - H(X | Y)``  (Shannon entropy);
* if ``X`` is numerical:    ``CORR(X, Y) = h(X) - h(X | Y)``  (cumulative entropy).

When ``X`` contains several attributes the paper treats them jointly; for a
mixed attribute set we sum the per-attribute contributions (each attribute of
``X`` conditioned on the full ``Y``), which degrades gracefully to the paper's
definition when ``X`` is homogeneous and single-attribute.

:func:`attribute_set_correlation` measures a table row by row.
:func:`grouped_correlation` measures a table given as its distinct rows and
how many times each occurs, and returns the same float.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from repro.exceptions import MeasureError
from repro.infotheory.cumulative import (
    conditional_cumulative_entropy,
    cumulative_entropy,
    cumulative_entropy_of_runs,
)
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


class SortedGroups(NamedTuple):
    """A numerical source over the distinct rows (groups) of a table.

    ``values[g]`` is group ``g``'s finite float, or ``None``; ``order``
    lists the groups that have a value in ascending value order, and
    ``by_target`` does the same per target code.
    """

    values: list[float | None]
    order: list[int]
    by_target: dict[int, list[int]]

    @classmethod
    def build(
        cls, values: list[float | None], target_codes: Sequence[int]
    ) -> "SortedGroups":
        order = sorted(
            (group for group, value in enumerate(values) if value is not None),
            key=values.__getitem__,
        )
        by_target: dict[int, list[int]] = {}
        for group in order:
            by_target.setdefault(target_codes[group], []).append(group)
        return cls(values, order, by_target)

    def kept_cumulative_entropy(
        self, counts: Mapping[int, int], groups: Sequence[int]
    ) -> float:
        """The cumulative entropy of the rows ``counts`` keeps of ``groups``."""
        kept = [group for group in groups if group in counts]
        return cumulative_entropy_of_runs(
            list(map(self.values.__getitem__, kept)), list(map(counts.__getitem__, kept))
        )


def grouped_correlation(
    counts: Mapping[int, int],
    target_codes: Sequence[int],
    sources: Sequence[tuple[AttributeType, Sequence[int] | SortedGroups]],
) -> float:
    """:func:`attribute_set_correlation` of a table given by its distinct rows.

    ``counts`` maps each distinct row (a group) to how many times it occurs,
    in the order of first occurrence in the table; ``target_codes[g]`` codes
    group ``g``'s target key.  ``sources`` holds one entry per present source
    attribute: its type and either each group's code (categorical) or its
    :class:`SortedGroups` (numerical).  Every histogram is summed from the
    groups in that order, so its counts come out in the order the per-row
    kernels see them and each entropy is the same float; the cumulative
    entropies walk the groups in value order instead of sorting rows.
    """
    rows = sum(counts.values())
    if not sources or rows == 0:
        return 0.0
    y_counts: dict[int, int] = {}
    for group, count in counts.items():
        y = target_codes[group]
        y_counts[y] = y_counts.get(y, 0) + count
    h_y = entropy_of_counts(y_counts.values())
    total = 0.0
    for x_type, column in sources:
        if x_type is AttributeType.NUMERICAL:
            # conditional_cumulative_entropy weighs each target code by all
            # its rows, those without a value included.
            conditional = 0.0
            for y, rows_y in y_counts.items():
                conditional += rows_y / rows * column.kept_cumulative_entropy(
                    counts, column.by_target.get(y, ())
                )
            total += column.kept_cumulative_entropy(counts, column.order) - conditional
        else:
            x_counts: dict[int, int] = {}
            xy_counts: dict[tuple[int, int], int] = {}
            for group, count in counts.items():
                x = column[group]
                x_counts[x] = x_counts.get(x, 0) + count
                xy = (x, target_codes[group])
                xy_counts[xy] = xy_counts.get(xy, 0) + count
            h_x = entropy_of_counts(x_counts.values())
            h_xy = entropy_of_counts(xy_counts.values())
            total += h_x - (h_xy - h_y)
    return total


def symmetric_correlation(
    table: Table, left_attributes: Sequence[str], right_attributes: Sequence[str]
) -> float:
    """Average of ``CORR(left, right)`` and ``CORR(right, left)`` (used in examples)."""
    forward = attribute_set_correlation(table, left_attributes, right_attributes)
    backward = attribute_set_correlation(table, right_attributes, left_attributes)
    return (forward + backward) / 2.0
