"""Correlated re-sampling of intermediate join results (Section 3.2).

When estimating correlation and quality over a multi-table join path, the join
of the per-instance samples can itself blow up.  Correlated re-sampling bounds
the intermediate size: whenever an intermediate join result exceeds a
threshold ``eta``, it is Bernoulli-sampled at a fixed re-sampling rate before
the next join.  The estimators remain unbiased regardless of ``eta``
(Theorem 3.2); larger ``eta`` / rate only reduces the estimator variance.

A policy re-samples in one of two forms that draw the same stream:
``policy(table)`` returns the re-sampled table (the hook of
:func:`repro.relational.joins.join_path`), and ``policy.draw(num_rows)``
returns only a byte mask of the rows to keep (1 kept, 0 dropped), which is
all a target-graph evaluation replaying a memoised join lineage needs
(:class:`repro.relational.joins.JoinLineage`).  The replay carries the mask
down the lineage and counts the rows it keeps without ever listing their
positions; only the table form gathers rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.exceptions import SamplingError
from repro.relational.table import Table, bernoulli_mask, mask_rows


def resample_if_large(
    table: Table,
    threshold: int,
    rate: float,
    rng: random.Random,
    *,
    name: str | None = None,
) -> Table:
    """Bernoulli-sample ``table`` at ``rate`` when it has more than ``threshold`` rows."""
    if threshold < 0:
        raise SamplingError(f"re-sampling threshold eta must be >= 0, got {threshold}")
    if not 0.0 < rate <= 1.0:
        raise SamplingError(f"re-sampling rate must be in (0, 1], got {rate}")
    if len(table) <= threshold or rate == 1.0:
        return table
    return table.sample_rows(rate, rng, name=name or table.name)


@dataclass
class ResamplingPolicy:
    """Configuration of correlated re-sampling for multi-way join estimation.

    Attributes
    ----------
    threshold:
        The intermediate-size threshold ``eta``; intermediate join results with
        more rows than this are re-sampled.  ``None`` disables re-sampling.
    rate:
        The fixed re-sampling rate applied when the threshold is exceeded.
    seed:
        Seed of the private random generator (kept per policy instance so that
        repeated estimations with the same policy object differ, but policies
        constructed with the same seed reproduce each other).
    """

    threshold: int | None = 10_000
    rate: float = 0.5
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)
    _scale: float = field(init=False, default=1.0, repr=False)

    def __post_init__(self) -> None:
        if self.threshold is not None and self.threshold < 0:
            raise SamplingError(f"eta must be >= 0 or None, got {self.threshold}")
        if not 0.0 < self.rate <= 1.0:
            raise SamplingError(f"re-sampling rate must be in (0, 1], got {self.rate}")
        self._rng = random.Random(self.seed)
        self._scale = 1.0

    @classmethod
    def disabled(cls) -> "ResamplingPolicy":
        """A policy that never re-samples (used for the 'without re-sampling' baseline)."""
        return cls(threshold=None, rate=1.0)

    @property
    def enabled(self) -> bool:
        return self.threshold is not None and self.rate < 1.0

    @property
    def cumulative_scale(self) -> float:
        """Product of the re-sampling rates applied so far (inverse inclusion probability)."""
        return self._scale

    def reset(self) -> None:
        """Reset the RNG and scale so that a new estimation run is reproducible."""
        self._rng = random.Random(self.seed)
        self._scale = 1.0

    def draw(self, num_rows: int) -> bytes | None:
        """The rows to keep of an intermediate of ``num_rows`` rows, as a byte
        mask (byte ``i`` is 1 when row ``i`` is kept, else 0), or ``None``.

        ``None`` means the intermediate stays whole (it is within ``eta``, or
        re-sampling is disabled) and consumes no randomness; otherwise the
        mask is drawn by :func:`~repro.relational.table.bernoulli_mask`, so
        it keeps the rows, and advances the generator as far, as
        :meth:`Table.sample_rows <repro.relational.table.Table.sample_rows>`
        would.
        """
        if self.threshold is None or num_rows <= self.threshold or self.rate == 1.0:
            return None
        self._scale *= self.rate
        return bernoulli_mask(num_rows, self.rate, self._rng)

    def __call__(self, intermediate: Table) -> Table:
        """Hook for :func:`repro.relational.joins.join_path`: maybe re-sample."""
        mask = self.draw(len(intermediate))
        return intermediate if mask is None else intermediate.take(mask_rows(mask))
