"""Distance families and the checks expressible purely on the family.

A family assigns a positive value to every unordered pair of distinct
indices in ``[n] = {1, ..., n}``.  The checks here (triangle, four-point,
median, indecomposability) are the paper's criteria; the recognizers read
their verdicts off the support graph, ``DistanceFamily.support``.  The
checks run on the family's array (``DistanceFamily.scaled``) with
``kernel.eq`` and ``kernel.lt``, one block of at most n^2 entries per step.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import kernel
from .comparison import EXACT, Cmp, Number

if TYPE_CHECKING:
    from .bipartite import Bipartition
    from .kernel import Scaled
    from .realization import Realization
    from .support import Support

MAX_VIOLATIONS = 32

# Why a four-point middle pairing of inf is refused under a tolerance: two
# sums beyond the float range have no order.
_SUM_BEYOND_FLOATS = "a sum of two values beyond the float range cannot be compared under a tolerance"


class FamilyError(ValueError):
    """Raised for structurally invalid families or indices."""


class DistanceFamily:
    """Symmetric positive values indexed by unordered pairs over [n].

    ``values`` maps ``(i, j)`` with ``i < j`` to a positive finite number.
    The family keeps only its n x n array ``scaled`` (``kernel.pair_matrix``,
    diagonal 0), which every decision reads; ``values`` and ``d`` are views.
    Under a tolerance it holds the correctly rounded floats of exact
    numbers, as ``parse_family_csv`` reads them (``_compared``).
    """

    def __init__(self, n: int, values: Dict[Tuple[int, int], Number], cmp: Cmp = EXACT):
        if n < 2:
            raise FamilyError("a distance family needs n >= 2")
        expected = n * (n - 1) // 2
        if len(values) != expected:
            raise FamilyError(f"expected {expected} pair values for n={n}, got {len(values)}")
        for (i, j), v in values.items():
            if not (1 <= i < j <= n and isinstance(i, numbers.Integral) and isinstance(j, numbers.Integral)):
                raise FamilyError(f"bad pair key ({i},{j}) for n={n}")
            if not v > 0:
                raise FamilyError(f"nonpositive 2-weight at ({i},{j}): {v}")
            if v == np.inf:
                raise FamilyError(f"infinite 2-weight at ({i},{j})")
        self.n, self.cmp = n, cmp
        try:
            scaled = kernel.pair_matrix(n, values)
        except OverflowError:
            raise FamilyError(kernel._FLOAT_BESIDE_BEYOND_FLOATS) from None
        self.scaled = _compared(scaled, cmp)

    @classmethod
    def _of_array(cls, scaled: "Scaled", cmp: Cmp) -> "DistanceFamily":
        """The family of a checked array that its maker built (symmetric, zero
        diagonal, positive finite entries, a dtype that holds any sum of two)."""
        family = cls.__new__(cls)
        family.n, family.cmp, family.scaled = len(scaled.array), cmp, _compared(scaled, cmp)
        return family

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistanceFamily):
            return NotImplemented
        return (self.n, self.cmp, self.values) == (other.n, other.cmp, other.values)

    def __repr__(self) -> str:
        return f"DistanceFamily(n={self.n!r}, values={self.values!r}, cmp={self.cmp!r})"

    @cached_property
    def values(self) -> Dict[Tuple[int, int], Number]:
        """D_{i,j} by (i, j), i < j, as Python numbers, read from the array on first use."""
        upper = self.scaled.array[np.triu_indices(self.n, 1)]
        return dict(zip(self.pairs(), self.scaled.numbers(upper)))

    def d(self, i: int, j: int) -> Number:
        """D_{i,j}, one entry of the array; 0 for i == j (the diagonal)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise FamilyError(f"index out of range: ({i},{j})")
        if i == j:
            return 0
        return self.scaled.numbers(self.scaled.array[i - 1, j - 1 : j])[0]

    def pairs(self) -> Iterator[Tuple[int, int]]:
        return itertools.combinations(range(1, self.n + 1), 2)

    @cached_property
    def support(self) -> "Support":
        """The family's support graph S (``metric_realize.support``), computed
        on first use and kept with the family."""
        from .support import analyse  # support builds on graph, which imports this module

        return analyse(self)

    @cached_property
    def sides(self) -> "Tuple[Optional[Realization], Optional[Bipartition], Optional[np.ndarray]]":
        """The bipartite classes' shared verdict on S's shape, a rejection or
        None, then the sides and X's membership (``bipartite._two_coloured``);
        computed on first use and kept with the family, so that one walk and
        one side check serve the bipartite classes and the planarity counts."""
        from .bipartite import _two_coloured

        return _two_coloured(self)


def _compared(scaled: "Scaled", cmp: Cmp) -> "Scaled":
    """The array as ``cmp`` compares it: float64 under a tolerance, where an
    exact value beyond the float range, or one that rounds to 0 (which the
    CSV reader refuses as nonpositive), raises FamilyError."""
    if cmp.exact or scaled.scale is None:
        return scaled
    try:
        a = kernel.at_scale(scaled.array, scaled.scale, None, 2)
    except OverflowError:
        raise FamilyError(kernel.OUT_OF_FLOAT_RANGE) from None
    if np.count_nonzero(a) < a.size - len(a):
        raise FamilyError("an exact value that rounds to 0 in float64 cannot be compared under a tolerance")
    return kernel.Scaled(a, None)


@dataclass
class PairPredicateReport:
    """Verdict of a family-wide predicate plus a capped list of violations."""

    holds: bool
    violations: List[tuple]

    def __bool__(self) -> bool:
        return self.holds


def _report(violations: Iterator[tuple], max_violations: int) -> PairPredicateReport:
    """The report of the first ``max_violations`` (at least 1) of
    ``violations``; the rest are never computed."""
    found = list(itertools.islice(violations, max(1, max_violations)))
    return PairPredicateReport(not found, found)


@kernel.python_floats
def check_triangle(family: DistanceFamily, max_violations: int = MAX_VIOLATIONS) -> PairPredicateReport:
    """Check D_{i,j} <= D_{i,k} + D_{k,j} for all distinct i, j, k.

    A violation is recorded as ``(i, j, k)`` meaning D_{i,j} > D_{i,k} + D_{k,j},
    once per unordered choice of {i,j} and k, in lexicographic order.
    """
    return _report(_triangle_violations(family), max_violations)


def _triangle_violations(family: DistanceFamily) -> Iterator[tuple]:
    d = family.scaled.array
    for i in range(family.n - 1):
        # rows j > i, columns k: D_ik + D_kj < D_ij; k = i and k = j give
        # D_ij itself, which is never below it
        short = kernel.lt(d[i] + d[i + 1 :], d[i, i + 1 :, None], family.cmp)
        for j, k in zip(*(ix.tolist() for ix in np.nonzero(short))):
            yield (i + 1, i + j + 2, k + 1)


@kernel.python_floats
def check_four_point(family: DistanceFamily, max_violations: int = MAX_VIOLATIONS) -> PairPredicateReport:
    """Check that for all distinct i,j,k,h the maximum of the three pairings
    {D_{i,j}+D_{k,h}, D_{i,k}+D_{j,h}, D_{i,h}+D_{k,j}} is attained at least
    twice.  Violations are the quadruples i < j < k < h in lexicographic order.
    Under a tolerance a middle pairing of inf, two sums beyond the float
    range that cannot be ordered, raises FamilyError when the scan meets it."""
    return _report(_four_point_violations(family), max_violations)


def _four_point_violations(family: DistanceFamily) -> Iterator[tuple]:
    d = family.scaled.array
    upper = ~np.tri(family.n, dtype=bool)
    for i, j in itertools.combinations(range(family.n - 2), 2):
        # the pairings D_ij + D_kh, D_ik + D_jh and D_ih + D_jk over the
        # (k, h) with j < k < h, the upper triangle of the blocks
        rest = slice(j + 1, None)
        di, dj = d[i, rest], d[j, rest]
        x, y, z = d[i, j] + d[rest, rest], di[:, None] + dj, dj[:, None] + di
        # the middle and the largest pairing, by comparisons alone, as a sort
        # of the three would give them
        low, high = np.minimum(x, y), np.maximum(x, y)
        middle, top = np.maximum(low, np.minimum(high, z)), np.maximum(high, z)
        bad = ~kernel.eq(middle, top, family.cmp) & upper[rest, rest]
        for k, h in zip(*(ix.tolist() for ix in np.nonzero(bad))):
            if middle[k, h] == np.inf:  # inf - inf is nan, never within tolerance
                raise FamilyError(_SUM_BEYOND_FLOATS)
            yield (i + 1, j + 1, j + k + 2, j + h + 2)


@kernel.python_floats
def is_indecomposable(family: DistanceFamily, i: int, j: int) -> bool:
    """True iff D_{i,j} < D_{i,z} + D_{z,j} for every z outside {i, j}.

    The caller is responsible for the family satisfying the triangle
    inequalities; that precondition is not re-verified here.  The one pair
    is tested on two rows, O(n), and not through ``kernel.splits``, which
    copies the n x n array on each call: ``PlanarWitness.validate`` asks
    for the links of a witness one at a time, up to n of them, and would
    take O(n^3).
    """
    if i == j:
        raise FamilyError("indecomposability needs i != j")
    if not (1 <= i <= family.n and 1 <= j <= family.n):
        raise FamilyError(f"index out of range: ({i},{j})")
    d = family.scaled.array
    below = kernel.lt(d[i - 1, j - 1], d[i - 1] + d[j - 1], family.cmp)
    below[[i - 1, j - 1]] = True
    return bool(below.all())


@kernel.python_floats
def check_median(family: DistanceFamily, max_violations: int = MAX_VIOLATIONS) -> PairPredicateReport:
    """Check that every triple of distinct indices has exactly one median.

    m is a median of {a,b,c} when D_{i,j} = D_{i,m} + D_{j,m} for all distinct
    i, j in the triple, with D_{m,m} = 0 so m may coincide with one of a,b,c.
    Violations carry the triple, in lexicographic order, and its median
    count, capped at 2.  n < 3 holds vacuously.
    """
    return _report(_median_violations(family), max_violations)


def _median_violations(family: DistanceFamily) -> Iterator[tuple]:
    d, cmp = family.scaled.array, family.cmp
    for a, b in itertools.combinations(range(family.n - 1), 2):
        # the m on the a-b geodesic, then per c > b those also on a-c and b-c
        m = np.nonzero(kernel.eq(d[a, b], d[a] + d[b], cmp))[0]
        dc = d[b + 1 :, m]
        on_ac = kernel.eq(d[a, b + 1 :, None], d[a, m] + dc, cmp)
        on_bc = kernel.eq(d[b, b + 1 :, None], d[b, m] + dc, cmp)
        count = np.minimum((on_ac & on_bc).sum(axis=1), 2)
        for c in np.nonzero(count != 1)[0].tolist():
            yield (a + 1, b + 1, b + c + 2, int(count[c]))
