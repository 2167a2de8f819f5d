"""Sampling and sample-based estimation (Section 3 of the paper).

DANCE never ships whole marketplace instances to the middleware; it buys
*correlated samples* and estimates join informativeness from them as the join
graph's edge weights (Theorem 3.1), and correlation and quality as a target
graph's evaluation, re-sampled above ``eta`` (Theorem 3.2).  The paper proves
these unbiased; one re-sampled draw is not (see :mod:`repro.sampling.resampling`).

``hashing``
    The deterministic uniform hash of join-attribute values into ``[0, 1]``.
``correlated``
    Correlated sampling (Vengerov et al.): a tuple is kept when the hash of its
    join-attribute value is below the sampling rate, so tuples that join with
    each other survive together across instances.
``resampling``
    Correlated re-sampling: a second-round Bernoulli sample applied to
    intermediate join results whose size exceeds a threshold ``eta``.
"""

from repro.sampling.hashing import uniform_hash
from repro.sampling.correlated import CorrelatedSampler, correlated_sample
from repro.sampling.resampling import ResamplingPolicy

__all__ = [
    "uniform_hash",
    "correlated_sample",
    "CorrelatedSampler",
    "ResamplingPolicy",
]
