"""Functional dependencies and approximate functional dependencies.

A functional dependency (FD) ``X -> Y`` holds on an instance when any two rows
that agree on ``X`` also agree on ``Y``.  The paper decomposes multi-attribute
right-hand sides into single-attribute rules, so :class:`FunctionalDependency`
enforces a single RHS attribute.  An *approximate* FD (AFD) holds when the
quality ``Q(D, X -> Y)`` is at least a threshold ``theta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from repro.exceptions import QualityError
from repro.relational.table import Table
from repro.relational.partitions import correct_row_count


@dataclass(frozen=True)
class FunctionalDependency:
    """An FD ``lhs -> rhs`` with a single right-hand-side attribute."""

    lhs: tuple[str, ...]
    rhs: str

    def __init__(self, lhs: Sequence[str] | str, rhs: str) -> None:
        if isinstance(lhs, str):
            lhs = (lhs,)
        lhs_tuple = tuple(lhs)
        if not lhs_tuple:
            raise QualityError("FD left-hand side must contain at least one attribute")
        if not rhs:
            raise QualityError("FD right-hand side must be a non-empty attribute name")
        if rhs in lhs_tuple:
            raise QualityError(f"trivial FD: {rhs!r} appears on both sides")
        object.__setattr__(self, "lhs", lhs_tuple)
        object.__setattr__(self, "rhs", rhs)

    # ------------------------------------------------------------------ dunder
    def __str__(self) -> str:
        return f"{','.join(self.lhs)} -> {self.rhs}"

    # ------------------------------------------------------------------ access
    @property
    def attributes(self) -> tuple[str, ...]:
        """All attributes mentioned by the FD (LHS followed by RHS)."""
        return self.lhs + (self.rhs,)

    @cached_property
    def attribute_set(self) -> frozenset[str]:
        """:attr:`attributes` as a set, for one subset test against a schema's
        names (computed on first use, so an FD unpickled from a catalog
        written without it gets one too)."""
        return frozenset(self.attributes)

    def applies_to(self, table: Table) -> bool:
        """True when every attribute of the FD exists in ``table``'s schema."""
        return self.attribute_set <= table.schema.name_set

    # --------------------------------------------------------------- semantics
    def holds_exactly(self, table: Table) -> bool:
        """True when the FD holds with zero violations on ``table``."""
        if not self.applies_to(table):
            return False
        return correct_row_count(table, self.lhs, (self.rhs,)) == len(table)

    def holds_approximately(self, table: Table, theta: float) -> bool:
        """True when ``Q(table, self) >= theta`` (the paper's AFD semantics).

        ``Q`` is ``correct / rows``, the value
        :func:`~repro.quality.measure.instance_quality` returns (1 on an empty
        table), so a quality that sits exactly on ``theta`` holds.
        """
        if not 0.0 < theta <= 1.0:
            raise QualityError(f"AFD threshold theta must be in (0, 1], got {theta}")
        if not self.applies_to(table):
            return False
        if len(table) == 0:
            return True
        return correct_row_count(table, self.lhs, (self.rhs,)) / len(table) >= theta

    @staticmethod
    def decompose(lhs: Sequence[str], rhs_attributes: Iterable[str]) -> list["FunctionalDependency"]:
        """Decompose ``X -> {Y1, ..., Yk}`` into single-RHS rules ``X -> Yi``."""
        return [FunctionalDependency(tuple(lhs), rhs) for rhs in rhs_attributes]
