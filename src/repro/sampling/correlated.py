"""Correlated sampling over join attributes (Section 3 of the paper).

A tuple ``t`` of instance ``D`` is included in the sample when
``h(t[J]) <= p`` where ``J`` is the join attribute (set), ``h`` is a
deterministic uniform hash into ``[0, 1]`` and ``p`` is the sampling rate.
Because the same hash is used for every instance, tuples that would join with
each other are kept or dropped *together*, which is what makes join-size /
join-statistics estimation from the samples unbiased.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import SamplingError
from repro.relational.table import Table
from repro.sampling.hashing import uniform_hash


def correlated_sample(
    table: Table,
    join_attributes: Sequence[str],
    rate: float,
    *,
    seed: int = 0,
    name: str | None = None,
) -> Table:
    """Correlated sample of ``table`` at ``rate`` over ``join_attributes``.

    Rows whose join-attribute value hashes below ``rate`` are kept.  Rows with a
    ``None`` join value never match anything in an equi-join, but they are kept
    with an independent per-row draw so that quality estimation still sees them
    at approximately the right frequency.
    """
    if not 0.0 < rate <= 1.0:
        raise SamplingError(f"sampling rate must be in (0, 1], got {rate}")
    validated = table.schema.validate_subset(join_attributes)
    if rate == 1.0:
        return table.with_name(name or f"{table.name}_sample")

    keys = table.key_tuples(validated)
    keep: list[int] = []
    for index, key in enumerate(keys):
        if any(value is None for value in key):
            # independent draw keyed by the row index so the choice is reproducible
            draw = uniform_hash((table.name, index), seed=seed + 1)
        else:
            draw = uniform_hash(key, seed=seed)
        if draw <= rate:
            keep.append(index)
    return table.take(keep, name=name or f"{table.name}_sample")


@dataclass(frozen=True)
class CorrelatedSampler:
    """A reusable correlated-sampling configuration.

    Attributes
    ----------
    rate:
        The sampling rate ``p`` in ``(0, 1]``.
    seed:
        Selects the hash family; all instances sampled by the same sampler use
        the same family, which is required for the correlation property.
    """

    rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise SamplingError(f"sampling rate must be in (0, 1], got {self.rate}")

    def sample(
        self, table: Table, join_attributes: Sequence[str], *, name: str | None = None
    ) -> Table:
        """Sample one instance over the given join attributes."""
        return correlated_sample(
            table, join_attributes, self.rate, seed=self.seed, name=name
        )

    def expected_sample_size(self, table: Table) -> float:
        """Expected number of sampled rows (rate × rows); exact in expectation."""
        return self.rate * len(table)
