"""Data quality: functional dependencies, consistency measurement, dirty data.

The marketplace data is assumed dirty; quality is measured as the fraction of
records consistent with a set of (approximate) functional dependencies on the
*join result* (Definitions 2.2 and 2.3 of the paper).  This package provides:

``FunctionalDependency``
    An ``X -> Y`` rule with a single right-hand-side attribute.
``instance_quality`` / ``join_quality``
    The quality measures ``Q(D, F)`` and ``Q(D)``.
``discover_afds``
    A TANE-style level-wise approximate-FD discovery used to find the FDs that
    hold on each marketplace instance (Table 5's "Avg #FDs per table").
``inject_inconsistency``
    The controlled FD-violation injection used in the experiment setup.
"""

from repro.quality.fd import FunctionalDependency
from repro.quality.measure import correct_records, instance_quality, join_quality
from repro.quality.discovery import discover_afds
from repro.quality.dirty import inject_inconsistency
from repro.quality.repair import majority_repair, repair_all

__all__ = [
    "FunctionalDependency",
    "instance_quality",
    "join_quality",
    "correct_records",
    "discover_afds",
    "inject_inconsistency",
    "majority_repair",
    "repair_all",
]
