"""The dense min-plus kernel behind 2-weights, pruning and verification.

Numbers live in the kernel as n x n numpy arrays; a family is one
(``DistanceFamily.scaled``), and ``Scaled.numbers`` gives back the Python
numbers a caller sees.  Exact numbers (int and Fraction) are multiplied by a
common multiple ``scale`` of their denominators; one float makes every
number a float and ``scale`` None.  One rule stores them, with no option:
float64 when ``scale`` is None, int64 when ``factor`` (1 for graph weights,
2 for a family's entries, whose sums the kernel forms) times the largest
magnitude fits, Python ints (``dtype=object``) otherwise.  ``scaled_array``
applies it to a list and ``at_scale`` to an array moved to another scale,
as ``row_matrix`` moves a matrix document's blocks of rows to the LCM of
their scales, or to float64 (scale None), correctly rounded: a tolerance
compares float64 arrays only (``eq``, ``lt``).  The loops below give their
results the dtype of their largest sum, except that ``all_pairs`` stores a
result held in Python ints by the rule for a family's entries when the +inf
stand-in is not among them.

A graph enters the kernel as its columns (``WeightedGraph``): 0-based
vertex indices u and v, and the weights w scaled by the graph's scale.
``all_pairs`` and ``bellman`` read them; no entry point takes edge tuples.

Floyd-Warshall runs in n numpy steps of n^2 each (fewer in exact mode, see
below).  Every entry sees the same additions d_ik + d_kj in the same k
order as the scalar loop, so the values are those of the loop, in exact and
in float arithmetic.  ``splits`` is the one split routine: for each given
pair (u, v) it takes M_uv = min over z outside {u, v} of D_uz + D_zv, O(n)
entries per pair in blocks of rows.  The support graph asks it for every
pair i < j, pruning for each edge of a graph.

Both routines work on a private copy, made once per call.  Where the
dtype rule gives int64, the copy takes the narrowest unsigned type that
holds the largest sum the routine forms (``_work_dtype``: twice the +inf
stand-in, twice ``big``), often 16 bits, so each step moves a quarter of
the bytes; the result is widened back to int64 before it leaves the
kernel.  Object and float64 copies stay as they are.  In exact mode
Floyd-Warshall also skips every vertex of degree <= 1 as a midpoint: it
lies inside no path, so the exact values do not change.  Float mode keeps
every midpoint, so that its values stay those of the scalar loop addition
for addition, with no argument about rounding.

Exact verification needs no Floyd-Warshall.  A graph whose 2-weights are
known (``two_weights`` or an exact prune kept them) is compared with the
family's array entrywise.  For any other graph, ``bellman`` checks that it
realizes an exact family array through the Bellman equations
D_ij = min over the neighbours u of i of w_iu + D_uj, in O(n * m) entries
as numpy blocks; with positive weights the shortest-path weights are their
only solution.  Under a tolerance near-ties do not chain along a path, and
float sums round, so there verification compares the graph's Floyd-Warshall
matrix with the family entrywise (``eq``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .comparison import Cmp, Number

INT64_MAX = int(np.iinfo(np.int64).max)

FLOAT_MAX = float(np.finfo(np.float64).max)  # the cap on the magnitude in ``_slack``

# Why an exact value is refused under a tolerance: it has no float64 value.
OUT_OF_FLOAT_RANGE = "an exact value beyond the float range cannot be compared under a tolerance"

# Why scaling raises OverflowError (one float makes every number float64)
_FLOAT_BESIDE_BEYOND_FLOATS = "an exact value beyond the float range cannot stand beside a float"


def python_floats(fn):
    """``fn`` with numpy's float overflow and invalid-operation warnings off:
    inf and nan then arise silently, as in the Python float arithmetic of
    the scalar loops, and a valid input prints nothing on stderr."""
    return np.errstate(over="ignore", invalid="ignore")(fn)


# Entries per block of the pair-by-vertex arrays in ``splits`` and
# ``bellman``: a few MB per temporary whatever the number of pairs.
SPLIT_BLOCK = 1 << 18


class Scaled(NamedTuple):
    """An n x n matrix of numbers x, stored as x * scale (int64 or object)
    or, when ``scale`` is None, as float64."""

    array: np.ndarray
    scale: Optional[int]

    def numbers(self, entries: np.ndarray) -> List[Number]:
        """Python int, Fraction or float values of scaled 1-d ``entries``."""
        return numbers(entries, self.scale)


def numbers(entries: np.ndarray, scale: Optional[int]) -> List[Number]:
    """Python int, Fraction or float values of 1-d ``entries`` scaled by ``scale``."""
    values = entries.tolist()
    if scale is None or scale == 1:
        return values
    out = []
    for v in values:
        q = Fraction(v, scale)
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


def scale_numbers(numbers: Sequence[Number]) -> Tuple[list, Optional[int]]:
    """Python numbers as (values, scale): the values times the LCM of their
    denominators, or floats and None as soon as one of them is a float."""
    scale = common_scale(numbers)
    if scale is None:
        return [float(x) for x in numbers], None
    return [x.numerator * (scale // x.denominator) for x in numbers], scale


def _dtype(scale: Optional[int], bound: int):
    """float64 in float mode; int64 when ``bound``, the largest value an
    operation forms, fits in it; Python ints otherwise."""
    if scale is None:
        return np.float64
    return np.int64 if bound <= INT64_MAX else object


def _work_dtype(scale: Optional[int], bound: int):
    """The dtype of the private copy a min-plus loop runs on: ``_dtype``'s,
    with int64 narrowed to the smallest unsigned integer type that holds
    ``bound``, the largest sum the loop forms.  The loops see no negative
    value, and their results are widened back to ``_dtype``'s."""
    dtype = _dtype(scale, bound)
    return np.min_scalar_type(bound) if dtype is np.int64 else dtype


def scaled_array(values: list, scale: Optional[int], factor: int = 1) -> np.ndarray:
    """The 1-d array of ``values`` already scaled by ``scale``, of any sign,
    stored by the kernel's rule (module docstring) for ``factor``: 1 for
    graph weights, 2 for a family's entries."""
    bound = 0 if scale is None else factor * max(max(values, default=0), -min(values, default=0))
    return np.array(values, dtype=_dtype(scale, bound))


def at_scale(a: np.ndarray, own: Optional[int], scale: Optional[int], factor: int = 1) -> np.ndarray:
    """Entries ``a`` scaled by ``own``, scaled by ``scale`` instead: a
    multiple of ``own``, or None for float64.  An int64 array whose product
    fits int64 for ``factor`` is multiplied in int64, and one whose entries
    and ``own`` are at most 2^53 in magnitude is divided in float64: both
    operands are then exact doubles, and IEEE division rounds correctly.
    Other work is done in Python ints, whose products are exact and whose
    true division rounds correctly, as float(Fraction) does; an exact value
    beyond the float range raises OverflowError.  The result is stored by
    the kernel's rule for ``factor``, as ``scaled_array`` stores a list."""
    if scale == own:
        return a
    if scale is None:
        if a.dtype == np.int64 and max(own, int(a.max(initial=0)), -int(a.min(initial=0))) <= 2**53:
            return a / own
        return np.asarray(a.astype(object) / own, dtype=np.float64)
    k = scale // own
    # the floor of 1 on the magnitude keeps k itself within int64
    if a.dtype == np.int64 and k * factor * max(int(a.max(initial=0)), -int(a.min(initial=0)), 1) <= INT64_MAX:
        return a * k
    a = a.astype(object) * k
    return a.astype(_dtype(scale, factor * max(a.max(initial=0), -a.min(initial=0))), copy=False)


def pair_matrix(n: int, values: Mapping[Tuple[int, int], Number]) -> Scaled:
    """The symmetric matrix of ``values`` (pairs (i, j) over [n]) with a zero
    diagonal, scaled by the LCM of their denominators and stored as a
    family's entries (``scaled_array`` with factor 2)."""
    nums, scale = scale_numbers(list(values.values()))
    entries = scaled_array(nums, scale, 2)
    array = np.zeros((n, n), dtype=entries.dtype)
    if nums:
        ij = np.array(list(values), dtype=np.intp) - 1
        array[ij[:, 0], ij[:, 1]] = entries
        array[ij[:, 1], ij[:, 0]] = entries
    return Scaled(array, scale)


def row_matrix(blocks: Iterable[Tuple[list, Optional[int]]], width: int) -> Scaled:
    """The matrix of ``width`` columns whose rows are read off ``blocks``,
    pairs (values, scale) of whole rows of scaled values of any sign, row
    after row, at the LCM of the scales (None for float blocks), stored as
    a family's entries.  Each block becomes an array before the next is
    drawn, and is moved to the LCM in its place in the list: at most one
    block is held as Python numbers, none twice, and the concatenation is
    int64 exactly when every block is."""
    arrays, scales = [], []
    for values, scale in blocks:
        arrays.append(scaled_array(values, scale, 2))
        scales.append(scale)
    scale = None if None in scales else math.lcm(*scales)
    for k, s in enumerate(scales):
        arrays[k] = at_scale(arrays[k], s, scale, 2)
    whole = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    return Scaled(whole.reshape(-1, width), scale)


@python_floats
def splits(dist: Scaled, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M_uv = min over z outside {u, v} of D_uz + D_zv for each pair of the
    distinct 0-based indices ``u`` and ``v`` of the family matrix ``dist``,
    as ``(d[u] + d[v]).min(axis=1)`` in blocks of SPLIT_BLOCK entries.  The
    blocks read one copy of the matrix whose diagonal is raised to ``big``,
    twice the largest value plus one (in the family's own numbers, so plus
    ``scale`` on scaled values): it keeps z = u and z = v out of every
    minimum, and for n = 2 it leaves the one pair below its split.  The copy
    holds 2 * big, the largest sum, in the narrowest unsigned type that does
    when int64 would (``_work_dtype``), and the result is widened back to
    int64; object and float64 copies stay."""
    a, scale = dist
    top = a.max(keepdims=True).item()
    big = 2 * top + (1 if scale is None else scale)
    d = a.astype(_work_dtype(scale, 2 * big))
    np.fill_diagonal(d, big)
    m = np.empty(len(u), dtype=d.dtype)
    block = max(1, SPLIT_BLOCK // len(d))
    for lo in range(0, len(u), block):
        part = slice(lo, lo + block)
        sums = d[u[part]]
        sums += d[v[part]]
        m[part] = sums.min(axis=1)
    return m.astype(_dtype(scale, 2 * big), copy=False)


def _total(w: np.ndarray) -> int:
    """The sum of scaled exact weights, as a Python int."""
    if w.dtype == object or len(w) * int(w.max(initial=0)) > INT64_MAX:
        return sum(w.tolist())
    return int(w.sum())


@python_floats
def all_pairs(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray, scale: Optional[int]) -> Scaled:
    """Shortest-path weights (Floyd-Warshall) of the graph on [n] whose edges
    join the 0-based vertex indices ``u`` and ``v`` with the weights ``w``,
    scaled by ``scale`` (None for float64).  Pairs in different components
    hold the value that stands for +inf: np.inf in float mode, and in exact
    mode the scaled weight sum plus one, a Python int that exceeds every path
    and never meets a float.  Twice that value must fit the dtype the loop
    runs in, because the kernel adds two of them.  When that is Python ints
    and twice the largest result fits int64 (a connected graph whose weights
    sum beyond half of int64), the result is int64, as the family of those
    values is stored.

    Exact steps run on a copy in ``_work_dtype`` (the narrowest unsigned
    type that holds twice the stand-in, when int64 would) that is widened
    back to int64, and skip every vertex of degree <= 1: such a vertex lies
    inside no path, so as a midpoint it lowers no entry.  Float mode keeps
    every step, so that each entry sees the scalar loop's additions."""
    if scale is None:
        inf, midpoints = np.inf, range(n)
    else:
        inf = _total(w) + 1
        midpoints = np.flatnonzero(np.bincount(np.concatenate((u, v)), minlength=n) > 1).tolist()
    d = np.full((n, n), inf, dtype=_work_dtype(scale, 2 * inf))
    np.fill_diagonal(d, 0)
    d[u, v] = w
    d[v, u] = w
    # Row k equals column k (the graph is undirected) and does not change
    # while k is the midpoint, so one step is one vectorized relaxation.
    for k in midpoints:
        np.minimum(d, d[:, k, None] + d[k], out=d)
    dtype = _dtype(scale, 2 * inf)
    if dtype is object:  # the stand-in needs Python ints; the values may not
        dtype = _dtype(scale, 2 * d.max())
    return Scaled(d.astype(dtype, copy=False), scale)


def _slack(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """tol * max(1, |a|, |b|), the magnitude capped at FLOAT_MAX, which
    changes the slack of no finite operands."""
    return tol * np.minimum(np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0), FLOAT_MAX)


@python_floats
def eq(a: np.ndarray, b: np.ndarray, cmp: Cmp) -> np.ndarray:
    """a = b entrywise: exactly in exact mode (arrays at one scale), and on
    float64 arrays under a tolerance by the relative rule
    |a - b| <= tol * max(1, |a|, |b|).  The floor of 1 keeps small values
    from meeting a vanishing threshold, and the cap of the magnitude at
    FLOAT_MAX keeps the slack finite (``Cmp`` holds tol < 1, so tol *
    FLOAT_MAX does not overflow): an infinite sum is within no tolerance of
    a finite value."""
    if cmp.exact:
        return a == b
    return np.abs(a - b) <= _slack(a, b, cmp.tol)


@python_floats
def lt(a: np.ndarray, b: np.ndarray, cmp: Cmp) -> np.ndarray:
    """a < b entrywise: exactly in exact mode, and under a tolerance when
    the gap b - a exceeds the slack of ``eq``."""
    if cmp.exact:
        return a < b
    return b - a > _slack(a, b, cmp.tol)


def bellman(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray, target: np.ndarray, scale: int) -> bool:
    """True iff the graph on [n] whose edges join the 0-based vertex indices
    ``u`` and ``v`` with the weights ``w`` realizes the exact family array
    ``target``, both scaled by ``scale``: D_ij = min over the neighbours u
    of i of w_iu + D_uj for every i != j.  With positive weights the
    shortest-path weights are the only solution of these equations
    (Bellman 1958).  Following a minimizing neighbour from i reaches j along
    a path of weight D_ij, and D_ij <= w_iu + D_uj on every edge keeps D at
    or below the path weights.  So the check also proves the graph
    connected; a vertex without an edge fails it.

    The directed edges, sorted by source, add their weight to the row of
    their target, and ``np.minimum.reduceat`` takes each source's minimum:
    O(n * m) entries in blocks of at most SPLIT_BLOCK, unless one source's
    rows need more (never more than n x n).  The dtype holds the largest
    weight plus the largest value."""
    if not len(u):
        return n < 2
    src = np.concatenate((u, v))
    order = np.argsort(src, kind="stable")
    src, dst = src[order], np.concatenate((v, u))[order]
    degree = np.bincount(src, minlength=n)
    if not degree.all():
        return False
    dtype = _dtype(scale, int(w.max()) + int(target.max()))
    d = np.asarray(target, dtype=dtype)
    w = np.concatenate((w, w)).astype(dtype)[order]
    ends = np.cumsum(degree)
    starts = ends - degree
    cap = max(1, SPLIT_BLOCK // n)
    first = 0
    while first < n:
        lo = starts[first]
        last = max(first + 1, int(np.searchsorted(ends, lo + cap, side="right")))
        hi = ends[last - 1]
        block = d[dst[lo:hi]]
        block += w[lo:hi, None]
        best = np.minimum.reduceat(block, starts[first:last] - lo, axis=0)
        sources = np.arange(first, last)
        # D_ii = 0 takes no equation
        best[sources - first, sources] = 0
        if not (best == d[first:last]).all():
            return False
        first = last
    return True
