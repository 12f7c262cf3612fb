"""Comparison modes for 2-weight arithmetic.

A :class:`Cmp` names the mode; every equality and strictness decision in the
library is ``kernel.eq`` or ``kernel.lt`` under it, on the family's array.
Exact mode compares numbers (ints / Fractions) directly; tolerance mode
compares floats with a relative tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Number = Union[int, Fraction, float]

DEFAULT_TOL = 1e-9


class Cmp:
    """A comparison mode.

    ``tol is None`` selects exact comparison (reference semantics, used by
    all acceptance tests).  Otherwise values are compared with relative
    tolerance ``tol`` (the rule is ``kernel.eq``'s).  A tolerance must be a
    number with ``0 < tol < 1``: from 1 on, no gap between positive values
    exceeds the slack of ``kernel.lt``, so no pair would be indecomposable.
    """

    __slots__ = ("tol",)

    def __init__(self, tol: "float | None" = None):
        if tol is not None and not 0 < tol < 1:
            raise ValueError(f"tolerance must satisfy 0 < tol < 1, got {tol!r}")
        self.tol = tol

    @property
    def exact(self) -> bool:
        return self.tol is None

    def __repr__(self) -> str:
        return "Cmp(exact)" if self.tol is None else f"Cmp(tol={self.tol!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Cmp) and self.tol == other.tol

    def __hash__(self) -> int:
        return hash(("Cmp", self.tol))


EXACT = Cmp()

