"""File formats: distance-matrix CSV, graph JSON, and DOT export.

Weights travel as strings ("7", "4.5", or "7/3") so exact rationals survive
round trips; binary floats never hit the wire in exact mode.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import List

import numpy as np

from . import kernel
from .comparison import Cmp, EXACT, Number, as_exact_number
from .family import DistanceFamily, FamilyError
from .graph import GraphError, WeightedGraph


# Largest vertex count a document may declare.  It is checked before
# anything of size n^2 is built: a kernel matrix takes 8 n^2 bytes.
MAX_N = 2048

# Plain tokens up to this length skip the Fraction parser.  Their digits stay
# within the smallest limit Python may put on int() (640 digits) and their
# values within the float range, so no error can differ from parse_number's.
PLAIN_TOKEN_MAX = 300


class ParseError(ValueError):
    pass


def _check_size(n: int) -> None:
    if n > MAX_N:
        raise ParseError(f"{n} vertices exceed the limit of {MAX_N}")


def parse_number(token: str, cmp: Cmp = EXACT) -> Number:
    """Parse "7", "4.5", or "7/3"; exact mode yields int/Fraction, tolerance
    mode yields float."""
    token = token.strip()
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed number {token!r}") from exc
    if cmp.exact:
        return as_exact_number(value)
    try:
        return float(value)
    except OverflowError as exc:
        raise ParseError(f"number {token!r} is out of float range") from exc


def format_number(value: Number) -> str:
    """Decimal string when exact (finite expansion or float), else "p/q"."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    frac = Fraction(value)
    if frac < 0:
        return "-" + format_number(-frac)
    if frac.denominator == 1:
        return str(frac.numerator)
    den = frac.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        digits = max(twos, fives)
        scaled = frac.numerator * 10**digits // frac.denominator
        text = f"{scaled:0{digits + 1}d}"
        return f"{text[:-digits]}.{text[-digits:]}"
    return f"{frac.numerator}/{frac.denominator}"


def parse_cell(token: str, cmp: Cmp = EXACT) -> Number:
    """``parse_number`` with a fast path: plain ASCII integers and decimals
    ("7", "-4.50", ".5") are read with int() and float(), without the
    Fraction regex.  Every other token goes through ``parse_number``, so
    values and errors are the same as its own."""
    t = token.strip()
    body = t[1:] if t[:1] in ("+", "-") else t
    whole, _dot, frac = body.partition(".")
    digits = whole + frac
    if not (digits.isdigit() and digits.isascii() and len(t) <= PLAIN_TOKEN_MAX):
        return parse_number(token, cmp)
    if not cmp.exact:
        # correctly rounded, as float(Fraction(t)) is; + 0.0 turns -0.0 into 0.0
        return float(t) + 0.0
    num = -int(digits) if t[0] == "-" else int(digits)
    if not frac:
        return num
    value = Fraction(num, 10 ** len(frac))
    return value.numerator if value.denominator == 1 else value


def _parse_row(cells: List[str], cmp: Cmp) -> List[Number]:
    """The numbers of one row: a row of plain unsigned ASCII integers (in
    tolerance mode, also decimals) in one ``map``, any other row cell by
    cell with ``parse_cell``."""
    plain = "".join(cells) if cmp.exact else "".join(cells).replace(".", "")
    if plain.isdigit() and plain.isascii() and max(map(len, cells)) <= PLAIN_TOKEN_MAX:
        try:
            return list(map(int if cmp.exact else float, cells))
        except ValueError:  # an empty cell or a stray point: parse_number names it
            pass
    return [parse_cell(c, cmp) for c in cells]


def parse_family_csv(text: str, cmp: Cmp = EXACT) -> DistanceFamily:
    """Parse an n x n matrix document: n comma-separated lines, zero diagonal,
    symmetric positive off-diagonals.  Errors name the offending cell, the
    first in row order with the diagonal cell ahead of its row.  The checks
    run on the family's array (``DistanceFamily.scaled``), which is built here
    once."""
    rows = [line for line in (l.strip() for l in text.splitlines()) if line]
    n = len(rows)
    if n < 2:
        raise ParseError(f"matrix needs at least 2 rows, got {n}")
    _check_size(n)
    matrix: List[List[Number]] = []
    for i, row in enumerate(rows, start=1):
        cells = row.split(",")
        if len(cells) != n:
            raise ParseError(f"row {i} has {len(cells)} cells, expected {n}")
        matrix.append(_parse_row(cells, cmp))
    a, scale = kernel.row_matrix(matrix)
    diagonal_off = ~kernel.eq(np.diagonal(a), 0, scale, cmp)
    asymmetric = np.triu(~kernel.eq(a, a.T, scale, cmp), 1)
    nonpositive = np.triu(~(a > 0), 1)
    bad = asymmetric | nonpositive
    bad_rows = diagonal_off | bad.any(axis=1)
    if bad_rows.any():
        i = int(np.argmax(bad_rows))
        if diagonal_off[i]:
            raise ParseError(f"nonzero diagonal at ({i + 1},{i + 1})")
        j = int(np.argmax(bad[i]))
        problem = "asymmetric" if asymmetric[i, j] else "nonpositive 2-weight"
        raise ParseError(f"{problem} at ({i + 1},{j + 1})")
    pairs = itertools.combinations(range(1, n + 1), 2)
    upper = (x for i, row in enumerate(matrix, start=1) for x in row[i:])
    try:
        family = DistanceFamily(n, dict(zip(pairs, upper)), cmp)
    except FamilyError as exc:
        raise ParseError(str(exc)) from exc
    # The family is the upper triangle; its array is that triangle mirrored,
    # with a zero diagonal (a tolerance admits near-zeros and near-mirrors).
    lower = np.tril_indices(n, -1)
    a[lower] = a.T[lower]
    np.fill_diagonal(a, 0)
    family.__dict__["scaled"] = kernel.Scaled(a, scale)  # what the cached property would build
    return family


def family_to_csv(family: DistanceFamily) -> str:
    lines = []
    for i in range(1, family.n + 1):
        lines.append(",".join(format_number(family.d(i, j)) for j in range(1, family.n + 1)))
    return "\n".join(lines) + "\n"


def graph_to_dict(graph: WeightedGraph) -> dict:
    return {
        "n": graph.n,
        "edges": [{"u": u, "v": v, "w": format_number(w)} for u, v, w in graph.edges],
    }


def graph_to_json(graph: WeightedGraph) -> str:
    return json.dumps(graph_to_dict(graph), indent=2) + "\n"


def graph_from_json(text: str, cmp: Cmp = EXACT) -> WeightedGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        n = _json_int(doc["n"], "n")
        edges = [
            (_json_int(e["u"], "u"), _json_int(e["v"], "v"), parse_number(str(e["w"]), cmp))
            for e in doc["edges"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed graph document: {exc}") from exc
    try:
        graph = WeightedGraph(n, edges)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc
    # A connected graph lists n - 1 edges, so the checks so far cost no more
    # than reading the document; the kernel's n x n matrices come later.
    _check_size(graph.n)
    return graph


def _json_int(value, key: str) -> int:
    # JSON integers only: int() would make 1.6 and true (a bool is an int)
    # both vertex 1
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def graph_to_dot(graph: WeightedGraph) -> str:
    lines = ["graph realization {"]
    for v in range(1, graph.n + 1):
        lines.append(f"  {v};")
    for u, v, w in graph.edges:
        lines.append(f'  {u} -- {v} [label="{format_number(w)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
