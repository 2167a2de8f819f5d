"""The columnar kernels' backend name, as the benchmark records it."""

from __future__ import annotations


def active_backend() -> str:
    """The columnar kernels' backend: always ``"python"``.

    The kernels run on plain python lists.  The library once had a second,
    numpy backend; the benchmark still records the backend in its results.
    """
    return "python"
