"""Sampling and sample-based estimation (Section 3 of the paper).

DANCE never ships whole marketplace instances to the middleware; it buys
*correlated samples* and estimates join informativeness, correlation and
quality from them.

``hashing``
    The deterministic uniform hash of join-attribute values into ``[0, 1]``.
``correlated``
    Correlated sampling (Vengerov et al.): a tuple is kept when the hash of its
    join-attribute value is below the sampling rate, so tuples that join with
    each other survive together across instances.
``resampling``
    Correlated re-sampling: a second-round Bernoulli sample applied to
    intermediate join results whose size exceeds a threshold ``eta``.
``estimators``
    Unbiased estimators of JI / CORR / Q over join paths built from samples
    (Theorems 3.1 and 3.2).
"""

from repro.sampling.hashing import uniform_hash
from repro.sampling.correlated import CorrelatedSampler, correlated_sample
from repro.sampling.resampling import ResamplingPolicy
from repro.sampling.estimators import SampleEstimator

__all__ = [
    "uniform_hash",
    "correlated_sample",
    "CorrelatedSampler",
    "ResamplingPolicy",
    "SampleEstimator",
]
