"""The dense min-plus kernel behind 2-weights, pruning and verification.

Numbers enter the kernel as an n x n numpy array.  Exact numbers (int and
Fraction) are multiplied by a common multiple ``scale`` of their
denominators and stored as int64 when the largest value the kernel can form
fits, and otherwise as Python ints in a ``dtype=object`` array.  As soon as
one number is a float, every number is stored as float64 and ``scale`` is
None.  The dtype thus follows from the data; there is no option.

Floyd-Warshall runs in n numpy steps of n^2 each.  Every entry sees the
same additions d_ik + d_kj in the same k order as the scalar loop, so the
values are those of the loop, in exact and in float arithmetic.  The split
matrix of a family (``splits``) is the same min-plus product, also in n
steps of n^2.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .comparison import Cmp, Number

INT64_MAX = int(np.iinfo(np.int64).max)

# Why a tolerance comparison raises OverflowError: the float rule cannot
# take an exact value beyond the float range.
OUT_OF_FLOAT_RANGE = "an exact value beyond the float range cannot be compared under a tolerance"


def python_floats(fn):
    """``fn`` with numpy's float overflow and invalid-operation warnings off:
    inf and nan then arise silently, as in the Python float arithmetic of
    the scalar loops, and a valid input prints nothing on stderr."""
    return np.errstate(over="ignore", invalid="ignore")(fn)


# Entries per block of the edge-by-vertex split array in ``useful``: a few MB
# per temporary whatever the number of edges.
SPLIT_BLOCK = 1 << 18


class Scaled(NamedTuple):
    """An n x n matrix of numbers x, stored as x * scale (int64 or object)
    or, when ``scale`` is None, as float64."""

    array: np.ndarray
    scale: Optional[int]

    def numbers(self, entries: np.ndarray) -> List[Number]:
        """Python int, Fraction or float values of scaled 1-d ``entries``."""
        values = entries.tolist()
        if self.scale is None or self.scale == 1:
            return values
        out = []
        for v in values:
            q = Fraction(v, self.scale)
            out.append(q.numerator if q.denominator == 1 else q)
        return out


def common_scale(numbers: Iterable[Number]) -> Optional[int]:
    """The LCM of the denominators of exact numbers (1 for ints); None as
    soon as one of them is a float."""
    scale = 1
    for x in numbers:
        if type(x) is int:
            continue
        if isinstance(x, float):
            return None
        scale = math.lcm(scale, x.denominator)
    return scale


def joint_scale(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """A scale that serves two sets of numbers."""
    return None if a is None or b is None else math.lcm(a, b)


def _scaled(numbers: Iterable[Number], scale: Optional[int]) -> list:
    if scale is None:
        return [float(x) for x in numbers]
    return [x.numerator * (scale // x.denominator) for x in numbers]


def _dtype(scale: Optional[int], bound: int):
    """float64 in float mode; int64 when ``bound``, the largest value an
    operation forms, fits in it; Python ints otherwise."""
    if scale is None:
        return np.float64
    return np.int64 if bound <= INT64_MAX else object


def pair_matrix(n: int, values: Mapping[Tuple[int, int], Number], scale: Optional[int]) -> Scaled:
    """The symmetric matrix of ``values`` (pairs (i, j) over [n]) with a zero
    diagonal; ``scale`` must be a multiple of every value's denominator."""
    nums = _scaled(values.values(), scale)
    dtype = _dtype(scale, max(nums, default=0))
    array = np.zeros((n, n), dtype=dtype)
    if nums:
        ij = np.array(list(values), dtype=np.intp) - 1
        entries = np.array(nums, dtype=dtype)
        array[ij[:, 0], ij[:, 1]] = entries
        array[ij[:, 1], ij[:, 0]] = entries
    return Scaled(array, scale)


def row_matrix(rows: Sequence[Sequence[Number]]) -> Scaled:
    """The matrix of ``rows``, n lists of n numbers of any sign, scaled by
    the LCM of their denominators."""
    cells = list(itertools.chain.from_iterable(rows))
    scale = common_scale(cells)
    nums = _scaled(cells, scale)
    dtype = _dtype(scale, max(map(abs, nums)))
    return Scaled(np.array(nums, dtype=dtype).reshape(len(rows), -1), scale)


@python_floats
def splits(dist: Scaled) -> Tuple[np.ndarray, np.ndarray]:
    """The family matrix ``dist`` with its diagonal raised to ``big``, and
    its min-plus square M_ij = min over z of D_iz + D_zj, in n numpy steps of
    n^2, one per midpoint z.  ``big`` is twice the largest value plus one (in
    the family's own numbers, so plus ``scale`` on scaled values): it keeps
    z = i and z = j out of every off-diagonal minimum, and for n = 2 it leaves
    the one pair below its split.  The dtype holds 2 * big, the largest sum."""
    a, scale = dist
    top = a.max(keepdims=True).item()
    big = 2 * top + (1 if scale is None else scale)
    d = a.astype(_dtype(scale, 2 * big))
    np.fill_diagonal(d, big)
    m = d[:, 0, None] + d[0]
    for z in range(1, len(d)):
        np.minimum(m, d[:, z, None] + d[z], out=m)
    return d, m


@python_floats
def first_shortcut(d: np.ndarray, i: int, j: int, scale: Optional[int], cmp: Cmp) -> int:
    """The first z with D_iz + D_zj < D_ij under ``cmp``, on the matrix
    ``d`` that ``splits`` returns; the pair must have one."""
    return int(np.argmax(lt(d[i] + d[j], d[i, j], scale, cmp)))


@python_floats
def all_pairs(n: int, edges: Sequence[Tuple[int, int, Number]], scale: Optional[int]) -> Tuple[Scaled, Number]:
    """Shortest-path weights of the graph on [n] with ``edges`` (Floyd-Warshall),
    scaled by ``scale``, a multiple of every weight's denominator (None for
    float64).  Returns the matrix and the value that stands for +inf, held by
    the pairs in different components: np.inf in float mode, and in exact
    mode the scaled weight sum plus one, a Python int that exceeds every
    path and never meets a float.  Twice that value must fit the dtype,
    because the kernel adds two of them."""
    weights = _scaled((w for _u, _v, w in edges), scale)
    if scale is None:
        inf = np.inf
        dtype = np.float64
    else:
        inf = sum(weights) + 1
        dtype = _dtype(scale, 2 * inf)
    d = np.full((n, n), inf, dtype=dtype)
    np.fill_diagonal(d, 0)
    if edges:
        u = np.array([e[0] - 1 for e in edges], dtype=np.intp)
        v = np.array([e[1] - 1 for e in edges], dtype=np.intp)
        w = np.array(weights, dtype=dtype)
        d[u, v] = w
        d[v, u] = w
    # Row k equals column k (the graph is undirected) and does not change
    # while k is the midpoint, so one step is one vectorized relaxation.
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[k], out=d)
    return Scaled(d, scale), inf


def _floats(x: np.ndarray, scale: Optional[int]) -> np.ndarray:
    """float64 values of scaled entries (Python's true division on object)."""
    if scale is None:
        return x
    return np.asarray(x / scale, dtype=np.float64)


def _slack(a: np.ndarray, b: np.ndarray, scale: Optional[int], tol: float) -> np.ndarray:
    """tol * max(1, |a|, |b|) in float64, the maximum taken on the scaled values."""
    return tol * np.maximum(1.0, _floats(np.maximum(np.abs(a), np.abs(b)), scale))


@python_floats
def eq(a: np.ndarray, b: np.ndarray, scale: Optional[int], cmp: Cmp) -> np.ndarray:
    """``cmp.eq`` entrywise on scaled arrays.  In tolerance mode it is the
    relative rule |a - b| <= tol * max(1, |a|, |b|) in float64, with the
    difference taken on the scaled values first."""
    if cmp.exact:
        return a == b
    return np.abs(_floats(a - b, scale)) <= _slack(a, b, scale, cmp.tol)


@python_floats
def lt(a: np.ndarray, b: np.ndarray, scale: Optional[int], cmp: Cmp) -> np.ndarray:
    """``cmp.lt`` entrywise on scaled arrays: in tolerance mode the gap
    b - a must exceed tol * max(1, |a|, |b|)."""
    if cmp.exact:
        return a < b
    return _floats(b - a, scale) > _slack(a, b, scale, cmp.tol)


@python_floats
def useful(dist: Scaled, edges: Sequence[Tuple[int, int, Number]], cmp: Cmp) -> np.ndarray:
    """Per edge (u, v, w) of a connected graph with 2-weights ``dist``: w
    equals D_uv and D_uv < D_uz + D_zv for every z outside {u, v}.  The splits
    are an edges x vertices array, built in blocks of SPLIT_BLOCK entries."""
    d, scale = dist
    n = len(d)
    u = np.array([e[0] - 1 for e in edges], dtype=np.intp)
    v = np.array([e[1] - 1 for e in edges], dtype=np.intp)
    w = np.array(_scaled((e[2] for e in edges), scale), dtype=d.dtype)
    duv = d[u, v]
    keep = eq(w, duv, scale, cmp)
    block = max(1, SPLIT_BLOCK // n)
    for lo in range(0, len(edges), block):
        part = slice(lo, lo + block)
        below = lt(duv[part, None], d[u[part]] + d[v[part]], scale, cmp)
        rows = np.arange(len(below))
        below[rows, u[part]] = True
        below[rows, v[part]] = True
        keep[part] &= below.all(axis=1)
    return keep
