"""Distance families and the checks expressible purely on the family.

A family assigns a positive value to every unordered pair of distinct
indices in ``[n] = {1, ..., n}``.  The checks here (triangle, four-point,
median, indecomposability) are the paper's criteria; the recognizers read
their verdicts off the support graph, ``DistanceFamily.support``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from . import kernel
from .comparison import EXACT, Cmp, Number

if TYPE_CHECKING:
    from .bipartite import Bipartition
    from .kernel import Scaled
    from .support import Support

MAX_VIOLATIONS = 32


class FamilyError(ValueError):
    """Raised for structurally invalid families or indices."""


@dataclass(frozen=True)
class DistanceFamily:
    """Symmetric positive values indexed by unordered pairs over [n].

    ``values`` maps ``(i, j)`` with ``i < j`` to a positive number.  The
    diagonal is not stored and is treated as 0 wherever a formula needs it.
    """

    n: int
    values: Dict[Tuple[int, int], Number]
    cmp: Cmp = field(default=EXACT)

    def __post_init__(self):
        if self.n < 2:
            raise FamilyError("a distance family needs n >= 2")
        expected = self.n * (self.n - 1) // 2
        if len(self.values) != expected:
            raise FamilyError(
                f"expected {expected} pair values for n={self.n}, got {len(self.values)}"
            )
        for (i, j), v in self.values.items():
            if not (1 <= i < j <= self.n):
                raise FamilyError(f"bad pair key ({i},{j}) for n={self.n}")
            if not v > 0:
                raise FamilyError(f"nonpositive 2-weight at ({i},{j}): {v}")

    def d(self, i: int, j: int) -> Number:
        """D_{i,j}; returns 0 for i == j (the diagonal convention)."""
        if i == j:
            return 0
        if i > j:
            i, j = j, i
        return self.values[(i, j)]

    def pairs(self) -> Iterator[Tuple[int, int]]:
        return itertools.combinations(range(1, self.n + 1), 2)

    @cached_property
    def support(self) -> "Support":
        """The family's support graph S (``metric_realize.support``), computed
        on first use and kept with the family."""
        from .support import analyse  # support builds on graph, which imports this module

        return analyse(self)

    @cached_property
    def scaled(self) -> "Scaled":
        """The family as one n x n array (``metric_realize.kernel``): the
        values times the LCM of their denominators, int64 or Python ints, or
        float64 once a value is a float; diagonal 0.  Built on first use (or
        by ``serialize.parse_family_csv`` from the parsed matrix) and kept
        with the family, so that S and every verification read one copy."""
        return kernel.pair_matrix(self.n, self.values, kernel.common_scale(self.values.values()))

    @cached_property
    def sides(self) -> "Bipartition":
        """The 2-colouring of S that ``bipartite.bipartition`` walks, computed
        on first use and kept with the family, so that both bipartite
        checks read one walk."""
        from .bipartite import bipartition

        return bipartition(self)

    def with_value(self, i: int, j: int, value: Number) -> "DistanceFamily":
        """Copy of the family with one entry replaced (for perturbation tests)."""
        if i > j:
            i, j = j, i
        values = dict(self.values)
        values[(i, j)] = value
        return DistanceFamily(self.n, values, self.cmp)

    def with_cmp(self, cmp: Cmp) -> "DistanceFamily":
        return DistanceFamily(self.n, self.values, cmp)


@dataclass
class PairPredicateReport:
    """Verdict of a family-wide predicate plus a capped list of violations."""

    holds: bool
    violations: List[tuple]

    def __bool__(self) -> bool:
        return self.holds


def check_triangle(family: DistanceFamily, max_violations: int = MAX_VIOLATIONS) -> PairPredicateReport:
    """Check D_{i,j} <= D_{i,k} + D_{k,j} for all distinct i, j, k.

    A violation is recorded as ``(i, j, k)`` meaning D_{i,j} > D_{i,k} + D_{k,j},
    once per unordered choice of {i,j} and k.
    """
    cmp = family.cmp
    d = family.d
    violations: List[tuple] = []
    for i, j in family.pairs():
        dij = d(i, j)
        for k in range(1, family.n + 1):
            if k == i or k == j:
                continue
            if cmp.lt(d(i, k) + d(k, j), dij):
                violations.append((i, j, k))
                if len(violations) >= max_violations:
                    return PairPredicateReport(False, violations)
    return PairPredicateReport(not violations, violations)


def check_four_point(family: DistanceFamily, max_violations: int = MAX_VIOLATIONS) -> PairPredicateReport:
    """Check that for all distinct i,j,k,h the maximum of the three pairings
    {D_{i,j}+D_{k,h}, D_{i,k}+D_{j,h}, D_{i,h}+D_{k,j}} is attained at least twice."""
    cmp = family.cmp
    d = family.d
    violations: List[tuple] = []
    for i, j, k, h in itertools.combinations(range(1, family.n + 1), 4):
        sums = sorted((d(i, j) + d(k, h), d(i, k) + d(j, h), d(i, h) + d(j, k)))
        if not cmp.eq(sums[1], sums[2]):
            violations.append((i, j, k, h))
            if len(violations) >= max_violations:
                return PairPredicateReport(False, violations)
    return PairPredicateReport(not violations, violations)


def is_indecomposable(family: DistanceFamily, i: int, j: int) -> bool:
    """True iff D_{i,j} < D_{i,z} + D_{z,j} for every z outside {i, j}.

    The caller is responsible for the family satisfying the triangle
    inequalities; that precondition is not re-verified here.
    """
    if i == j:
        raise FamilyError("indecomposability needs i != j")
    if not (1 <= i <= family.n and 1 <= j <= family.n):
        raise FamilyError(f"index out of range: ({i},{j})")
    cmp = family.cmp
    d = family.d
    dij = d(i, j)
    for z in range(1, family.n + 1):
        if z == i or z == j:
            continue
        if not cmp.lt(dij, d(i, z) + d(z, j)):
            return False
    return True


def check_median(family: DistanceFamily, max_violations: int = MAX_VIOLATIONS) -> PairPredicateReport:
    """Check that every triple of distinct indices has exactly one median.

    m is a median of {a,b,c} when D_{i,j} = D_{i,m} + D_{j,m} for all distinct
    i, j in the triple, with D_{m,m} = 0 so m may coincide with one of a,b,c.
    Violations carry the triple and its median count.  n < 3 holds vacuously.
    """
    cmp = family.cmp
    d = family.d
    violations: List[tuple] = []
    for a, b, c in itertools.combinations(range(1, family.n + 1), 3):
        count = 0
        for m in range(1, family.n + 1):
            if (
                cmp.eq(d(a, b), d(a, m) + d(b, m))
                and cmp.eq(d(a, c), d(a, m) + d(c, m))
                and cmp.eq(d(b, c), d(b, m) + d(c, m))
            ):
                count += 1
                if count > 1:
                    break
        if count != 1:
            violations.append((a, b, c, count))
            if len(violations) >= max_violations:
                return PairPredicateReport(False, violations)
    return PairPredicateReport(not violations, violations)
