"""Join informativeness (Definition 2.4 of the paper).

Given two instances ``D`` and ``D'`` with join attribute(s) ``J``, the join
informativeness is

    JI(D, D') = (H(D.J, D'.J) - I(D.J, D'.J)) / H(D.J, D'.J)

where the joint distribution of ``D.J`` and ``D'.J`` is taken over the *full
outer* join of ``D`` and ``D'``.  Unmatched rows contribute ``(value, NULL)``
pairs, which raises the joint entropy without raising the mutual information,
so joins with many unmatched values are penalised (JI closer to 1).  Lower JI
means a more important / more informative join connection.

The joint distribution over the full outer join is a pure function of the two
join-key *histograms* (a key matched on both sides contributes
``count_left × count_right`` identical pairs; an unmatched key contributes its
own count of ``(value, NULL)`` / ``(NULL, value)`` pairs), so
:func:`join_informativeness` never materialises the outer join: it reduces the
cached key histograms of the two tables directly.  This is the kernel under
the join-graph construction and the target-graph weight term of the MCMC loop.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.exceptions import JoinError, MeasureError
from repro.infotheory.entropy import entropy_of_counts, joint_entropy, mutual_information
from repro.relational.joins import shared_join_attributes
from repro.relational.table import Table


def join_informativeness_from_pairs(
    left_values: Sequence[object], right_values: Sequence[object]
) -> float:
    """JI computed directly from the aligned ``(D.J, D'.J)`` value pairs."""
    if len(left_values) != len(right_values):
        raise MeasureError("join informativeness requires aligned value sequences")
    if not left_values:
        return 1.0
    joint = joint_entropy(left_values, right_values)
    if joint <= 0.0:
        # A single repeated value pair: the join carries no uncertainty at all.
        return 0.0
    mi = mutual_information(left_values, right_values)
    value = (joint - mi) / joint
    # Guard against tiny negative values from floating-point noise.
    return min(1.0, max(0.0, value))


def join_informativeness_from_histograms(
    left_counts: Mapping[tuple, int],
    right_counts: Mapping[tuple, int],
    key_width: int,
) -> float:
    """JI from the two join-key histograms, without materialising the outer join.

    ``left_counts`` / ``right_counts`` map key tuples (``None`` components
    allowed) to row counts; ``key_width`` is the number of join attributes.
    The reduction mirrors the full-outer-join semantics exactly: keys with a
    ``None`` component never match, a matched key contributes the product of
    its counts as identical pairs, and unmatched rows pair with an all-``None``
    pad of the opposite side.
    """
    pad = (None,) * key_width
    joint: dict[tuple[tuple, tuple], int] = {}
    for key, left_count in left_counts.items():
        if left_count <= 0:
            continue
        right_count = (
            right_counts.get(key, 0) if not any(v is None for v in key) else 0
        )
        if right_count > 0:
            pair = (key, key)
            joint[pair] = joint.get(pair, 0) + left_count * right_count
        else:
            pair = (key, pad)
            joint[pair] = joint.get(pair, 0) + left_count
    for key, right_count in right_counts.items():
        if right_count <= 0:
            continue
        if any(v is None for v in key) or left_counts.get(key, 0) <= 0:
            pair = (pad, key)
            joint[pair] = joint.get(pair, 0) + right_count
    if not joint:
        return 1.0
    h_joint = entropy_of_counts(joint.values())
    if h_joint <= 0.0:
        return 0.0
    left_marginal: dict[tuple, int] = {}
    right_marginal: dict[tuple, int] = {}
    for (left_key, right_key), count in joint.items():
        left_marginal[left_key] = left_marginal.get(left_key, 0) + count
        right_marginal[right_key] = right_marginal.get(right_key, 0) + count
    mi = max(
        0.0,
        entropy_of_counts(left_marginal.values())
        + entropy_of_counts(right_marginal.values())
        - h_joint,
    )
    return min(1.0, max(0.0, (h_joint - mi) / h_joint))


def join_informativeness(
    left: Table,
    right: Table,
    on: Sequence[str] | None = None,
) -> float:
    """``JI(left, right)`` over the full outer join on ``on`` (default: shared attributes).

    Returns a value in ``[0, 1]``; smaller values indicate a more informative
    (more important) join connection between the two instances.  Computed from
    the (cached) join-key histograms of the two tables in time proportional to
    the number of distinct keys.
    """
    join_attrs = tuple(on) if on is not None else shared_join_attributes(left, right)
    if not join_attrs:
        raise JoinError(
            f"no join attributes between {left.name!r} and {right.name!r} for join informativeness"
        )
    return join_informativeness_from_histograms(
        left.encoded_key(join_attrs).value_counts(),
        right.encoded_key(join_attrs).value_counts(),
        len(join_attrs),
    )
