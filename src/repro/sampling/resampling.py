"""Correlated re-sampling of intermediate join results (Section 3.2).

When estimating correlation and quality over a multi-table join path, the join
of the per-instance samples can itself blow up.  Correlated re-sampling bounds
the intermediate size: whenever an intermediate join result exceeds a
threshold ``eta``, it is Bernoulli-sampled at a fixed re-sampling rate before
the next join.  Larger ``eta`` / rate reduce the estimate's variance and bias:
one draw is not unbiased.  Against the same graph without re-sampling, the
mean of single draws over policy seeds read 68% to 146% above on the CORR of
fresh-tpch's three fired Q1 graphs (η = 10,000, rate 0.5, 200 seeds), and 2.3%
below on that of the chain in ``tests/sampling/test_unbiasedness.py`` (η = 40,
rate 0.6, 400 seeds, about 31 standard errors).  Q of ``grp -> y``, an FD the
chain's join violates, read 0.356 against 0.200 there (300 seeds).

A policy re-samples a join: ``policy(join)`` returns the join, or its
Bernoulli sample when :meth:`ResamplingPolicy.fires` on its row count, for a
table and a row-vector join alike.  A target graph's estimate is one draw
from the policy :meth:`ResamplingPolicy.for_graph` derives for that graph,
seeded from the policy seed and the graph's signature, so it is a pure
function of the graph, its tables and the policy settings (see
:meth:`repro.graph.target.TargetGraph.joined_rows`).  The search never draws
from the policy it is handed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.exceptions import SamplingError
from repro.relational.joins import Relation


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
        constructed with the same seed reproduce each other), and the root of
        every seed :meth:`for_graph` derives.
    """

    threshold: int | None = 10_000
    rate: float = 0.5
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.threshold is not None and self.threshold < 0:
            raise SamplingError(f"eta must be >= 0 or None, got {self.threshold}")
        if not 0.0 < self.rate <= 1.0:
            raise SamplingError(f"re-sampling rate must be in (0, 1], got {self.rate}")
        self._rng = random.Random(self.seed)

    @classmethod
    def disabled(cls) -> "ResamplingPolicy":
        """A policy that never re-samples (used for the 'without re-sampling' baseline)."""
        return cls(threshold=None, rate=1.0)

    @property
    def enabled(self) -> bool:
        return self.threshold is not None and self.rate < 1.0

    def fires(self, num_rows: int) -> bool:
        """Whether an intermediate of ``num_rows`` rows is re-sampled."""
        return self.enabled and num_rows > self.threshold

    def for_graph(self, signature: tuple) -> "ResamplingPolicy":
        """The policy that draws the re-sample of one target graph.

        It has this policy's threshold and rate, and its seed is blake2b of
        this policy's seed and the graph's
        :meth:`~repro.graph.target.TargetGraph.signature`, so a graph's
        re-sample is a function of the graph, its tables and this policy.
        The signature's ``repr`` (strings, ints and tuples) is the same in
        every process, whatever ``PYTHONHASHSEED``.
        """
        digest = hashlib.blake2b(
            repr((self.seed, signature)).encode("utf-8"), digest_size=8
        ).digest()
        return ResamplingPolicy(self.threshold, self.rate, int.from_bytes(digest, "big"))

    def __call__(self, intermediate: Relation) -> Relation:
        """``intermediate``, or its Bernoulli sample when :meth:`fires` on its size.

        A table and a row-vector join are re-sampled by the same
        :func:`~repro.relational.table.bernoulli_rows` draw, which keeps the
        same rows of the same join.
        """
        if not self.fires(len(intermediate)):
            return intermediate
        return intermediate.sample_rows(self.rate, self._rng)
