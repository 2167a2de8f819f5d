"""TANE-style level-wise discovery of approximate functional dependencies.

The experiment setup (Section 6.1) reports the number of AFDs per table under a
violation threshold of ``theta`` (they use ``theta = 0.1`` meaning at most 10 %
of rows violate the rule, i.e. quality >= 0.9).  This module provides a
level-wise search over left-hand-side candidates with the usual prunings:

* a minimal AFD prunes all its supersets with the same right-hand side;
* LHS candidates are bounded by ``max_lhs_size`` (default 2) to keep the search
  tractable on wide tables.

The search counts on the table's cached dictionary codes.  Each LHS groups the
rows once, as one int key per row (:func:`~repro.relational.partitions.group_keys`),
and only when some RHS candidate survives the pruning; that grouping is reused
for every RHS candidate.  Two cases are exact without counting: an LHS that is
a key keeps every row, and an RHS that is a key keeps one row per LHS class.
The threshold compares the integer counts as one correctly rounded ratio: an
AFD is reported when ``(rows - correct) / rows <= max_violation``, so a rate
that sits exactly on the threshold passes.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from repro.exceptions import QualityError
from repro.quality.fd import FunctionalDependency
from repro.relational.partitions import (
    RowKeys,
    column_codes,
    correct_from_keys,
    group_keys,
)
from repro.relational.table import Table


def discover_afds(
    table: Table,
    *,
    max_violation: float = 0.1,
    max_lhs_size: int = 2,
    attributes: Sequence[str] | None = None,
) -> list[FunctionalDependency]:
    """Discover AFDs ``X -> A`` on ``table`` with violation rate <= ``max_violation``.

    Parameters
    ----------
    table:
        The instance to mine.
    max_violation:
        Maximum fraction of violating rows (the paper's ``theta = 0.1``); an
        AFD is reported when ``1 - Q(table, X -> A) <= max_violation``,
        computed as ``(rows - correct) / rows``.
    max_lhs_size:
        Maximum number of attributes on the left-hand side.
    attributes:
        Restrict the search to these attributes (default: the whole schema).

    Returns
    -------
    list[FunctionalDependency]
        Minimal AFDs (no reported AFD's LHS is a superset of another reported
        AFD's LHS with the same RHS), ordered by (RHS, LHS size, LHS).
    """
    if not 0.0 <= max_violation < 1.0:
        raise QualityError(f"max_violation must be in [0, 1), got {max_violation}")
    if max_lhs_size < 1:
        raise QualityError(f"max_lhs_size must be >= 1, got {max_lhs_size}")

    names = list(attributes) if attributes is not None else list(table.schema.names)
    table.schema.validate_subset(names)
    if len(table) == 0:
        return []

    rows = len(table)
    columns = {name: column_codes(table, name) for name in names}
    discovered: list[FunctionalDependency] = []
    # minimal LHS sets already found per RHS, used for superset pruning
    minimal_lhs: dict[str, list[frozenset[str]]] = {name: [] for name in names}

    for lhs_size in range(1, max_lhs_size + 1):
        for lhs in combinations(names, lhs_size):
            lhs_set = frozenset(lhs)
            lhs_keys: RowKeys | None = None  # grouped once, for the first surviving RHS
            for rhs in names:
                if rhs in lhs_set:
                    continue
                if any(existing <= lhs_set for existing in minimal_lhs[rhs]):
                    continue  # a smaller LHS already determines rhs
                if lhs_keys is None:
                    lhs_keys = group_keys([columns[name] for name in lhs])
                violations = rows - correct_from_keys(lhs_keys, columns[rhs])
                if violations / rows <= max_violation:
                    discovered.append(FunctionalDependency(lhs, rhs))
                    minimal_lhs[rhs].append(lhs_set)

    discovered.sort(key=lambda fd: (fd.rhs, len(fd.lhs), fd.lhs))
    return discovered


def count_afds_per_table(
    tables: Sequence[Table],
    *,
    max_violation: float = 0.1,
    max_lhs_size: int = 2,
) -> dict[str, int]:
    """Number of discovered AFDs per table (used to regenerate Table 5)."""
    return {
        table.name: len(
            discover_afds(table, max_violation=max_violation, max_lhs_size=max_lhs_size)
        )
        for table in tables
    }
