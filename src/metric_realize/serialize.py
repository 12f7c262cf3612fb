"""File formats: distance-matrix CSV, graph JSON, the classify report, and
DOT export.

Weights travel as strings ("7", "4.5", or "7/3") so exact rationals survive
round trips; binary floats never hit the wire in exact mode.

Number text meets the kernel's scaled arrays in one reader,
``_read_numbers`` (plain decimals by one int() each, other tokens through
``parse_number``), and one writer, ``_write_numbers`` (the point placed in
the scaled integer, or ``format_number``); those two are the reference.

A matrix document's rows are counted and each row's cells counted by its
commas.  In exact mode a document of plain unsigned ASCII integers below
10^18 is then read by one ``np.fromstring`` behind C-level guards
(``_read_ints``); any other is read in blocks of whole rows, at most
``BLOCK_CELLS`` cells and one ``_read_numbers`` call each.  Either way a
document errs as a cell-by-cell reader would, with the first fault in row
order.  A valid matrix is checked in a fixed number of array steps, and
only a failing one is searched for the cell to name.  The matrix writer
works in blocks of whole rows too.

Each document is written as one flat list of parts in document order, which
the CLI writes part by part and ``graph_to_json`` and ``report_to_json`` join
once: no level of nesting copies the text below it.  The layout is that of
``json.dumps(doc, indent=2)`` (two-space indent, ASCII escapes, a fixed key
order), at a fraction of what that pure-Python encoder spends.  Each edge
list, in a graph document, a report or DOT, is written in blocks of at most
``BLOCK_CELLS`` edges, one ``%`` each over the cells read from the graph's
columns (``_edge_blocks``), not by one format per edge.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from . import kernel
from .comparison import Cmp, EXACT, Number
from .family import DistanceFamily
from .graph import GraphError, WeightedGraph, _columns

if TYPE_CHECKING:
    from .classify import ClassificationReport


# Largest vertex count a document may declare.  It is checked before
# anything of size n^2 is built: a kernel matrix takes 8 n^2 bytes.
MAX_N = 2048

# Plain tokens up to this length skip the Fraction parser.  Their digits stay
# within the smallest limit Python may put on int() (640 digits) and their
# values within the float range, so no error can differ from parse_number's.
PLAIN_TOKEN_MAX = 300

# Cells per ``_read_numbers`` call when a matrix document is read (whole
# rows: one block for n <= 64, two rows a block at MAX_N), and edges per
# ``%`` when an edge list is written: Python objects are held a block at a time.
BLOCK_CELLS = 4096


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
        return value.numerator if value.denominator == 1 else value
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


def _read_numbers(tokens: List[str], cmp: Cmp) -> Tuple[list, Optional[int]]:
    """The numbers of ``tokens`` as (values, scale), scaled by the LCM of
    their denominators (floats and None in tolerance mode).  Plain unsigned
    ASCII decimals ("4.50", ".5", "5.") take one int() each at 10^k, k the
    longest fraction, reduced by g = gcd(10^k, every value) to scale
    10^k / g; any other list goes through ``parse_number``, errors too."""
    joined = "".join(tokens)
    plain = joined.replace(".", "")
    if plain.isdigit() and plain.isascii() and max(map(len, tokens)) <= PLAIN_TOKEN_MAX:
        try:
            if not cmp.exact:
                return list(map(float, tokens)), None
            if len(plain) == len(joined):
                return list(map(int, tokens)), 1
            parts = [t.partition(".") for t in tokens]
            k = max(len(frac) for _whole, _dot, frac in parts)
            up = [10 ** (k - j) for j in range(k + 1)]
            values = [int(whole + frac) * up[len(frac)] for whole, _dot, frac in parts]
        except ValueError:  # an empty cell or a stray point: parse_number names it
            pass
        else:
            g = math.gcd(10**k, *values)
            return [v // g for v in values] if g > 1 else values, 10**k // g
    return kernel.scale_numbers([parse_number(t, cmp) for t in tokens])


def _write_numbers(entries: np.ndarray, scale: Optional[int]) -> List[str]:
    """The texts of 1-d ``entries`` scaled by ``scale``, as ``format_number``
    writes their values: ``repr`` of floats (``scale`` None), and when
    ``scale`` divides 10^k the point placed k digits into value * 10^k,
    trailing zeros stripped."""
    values = entries.tolist()
    if scale is None or scale == 1:
        return list(map(repr, values))  # floats, or ints as str() writes them
    if pow(10, scale.bit_length(), scale):  # a prime factor other than 2 and 5
        return [format_number(Fraction(v, scale)) for v in values]
    k = next(k for k in range(1, scale.bit_length()) if 10**k % scale == 0)
    up = 10**k // scale
    digits = [str(v * up).zfill(k + 1 + (v < 0)) for v in values]
    return [f"{d[:-k]}.{d[-k:]}".rstrip("0").rstrip(".") for d in digits]


# Deletes the digits and commas, all that a plain-int document holds.
_NOT_PLAIN_INT = str.maketrans("", "", "0123456789,")


def _read_ints(rows: List[str], n: int) -> Optional[kernel.Scaled]:
    """The family array of ``rows``, n cells each, when every cell is a
    plain unsigned ASCII integer below 10^18, read by one ``np.fromstring``:
    int64 at scale 1, as ``kernel.row_matrix`` stores those values (twice
    10^18 fits int64).  None for any other document, which the block reader
    then reads.

    ``np.fromstring`` is laxer than the reference reader: it reads "+1" and
    " 1", warns or raises on an empty cell (by numpy version), and clamps a
    value beyond int64 without an error.  So the body it reads has passed
    guards of one C-level scan each: only digits and commas, no empty cell,
    and no run of ``PLAIN_TOKEN_MAX - 17`` zeros, which a cell longer than
    ``PLAIN_TOKEN_MAX`` characters holds when its value is below 10^18
    (the block reader hands such a cell to ``parse_number``); and after the
    read, n^2 values below 10^18."""
    body = ",".join(rows)
    if (
        body.translate(_NOT_PLAIN_INT)
        or ",," in body
        or body[0] == ","
        or body[-1] == ","
        or "0" * (PLAIN_TOKEN_MAX - 17) in body
    ):
        return None
    a = np.fromstring(body, dtype=np.int64, sep=",")
    if a.size != n * n or a.max() >= 10**18:
        return None
    return kernel.Scaled(a.reshape(n, n), 1)


def parse_family_csv(text: str, cmp: Cmp = EXACT) -> DistanceFamily:
    """Parse an n x n matrix document: n comma-separated lines, zero diagonal,
    symmetric positive off-diagonals.

    The rows are counted and ``MAX_N`` checked before any cell is read, and
    each row's cells are counted by its commas.  In exact mode a document of
    n cells a row is offered to ``_read_ints``, which reads plain integers
    below 10^18 into the array that the blocks would make; such a document
    holds no malformed cell.  Otherwise the cells of the rows ahead of the
    first row of the wrong length are read in blocks of whole rows, at most
    ``BLOCK_CELLS`` cells each, one ``_read_numbers`` call per block, and
    merged into the family's array (``DistanceFamily.scaled``) by
    ``kernel.row_matrix``.  So the errors and their order are those of a
    cell-by-cell reader: a malformed cell, then the row of the wrong
    length, then the first bad pair in row order, the diagonal cell ahead
    of its row.  A valid matrix is checked in a fixed number of array steps;
    only a failing one is searched for the cell to name."""
    rows = [line for line in (l.strip() for l in text.splitlines()) if line]
    n = len(rows)
    if n < 2:
        raise ParseError(f"matrix needs at least 2 rows, got {n}")
    _check_size(n)
    commas = [row.count(",") for row in rows]
    # the rows ahead of the first row of the wrong length
    whole = next((i for i, c in enumerate(commas) if c != n - 1), n)
    read = _read_ints(rows, n) if cmp.exact and whole == n else None
    if read is None:
        step = max(1, BLOCK_CELLS // n)
        blocks = (
            _read_numbers(",".join(rows[r : min(r + step, whole)]).split(","), cmp)
            for r in range(0, whole, step)
        )
        if whole < n:
            for _block in blocks:  # a malformed cell ahead of the row is named first
                pass
            raise ParseError(f"row {whole + 1} has {commas[whole] + 1} cells, expected {n}")
        read = kernel.row_matrix(blocks, n)
    a, scale = read
    if not _is_family(a, cmp):
        raise ParseError(_first_fault(a, cmp))
    if not cmp.exact:
        # The family is the upper triangle mirrored (x + 0.0 is x), with a
        # zero diagonal; a tolerance admits near-zeros and near-mirrors.
        a = np.triu(a, 1)
        a += a.T
    return DistanceFamily._of_array(kernel.Scaled(a, scale), cmp)


def _is_family(a: np.ndarray, cmp: Cmp) -> bool:
    """Whether the read matrix is a family's: a zero diagonal, symmetric,
    and positive above the diagonal, each in one array step."""
    return (
        kernel.eq(np.diagonal(a), 0, cmp).all()
        and kernel.eq(a, a.T, cmp).all()
        and (np.tri(len(a), dtype=bool) | (a > 0)).all()
    )


def _first_fault(a: np.ndarray, cmp: Cmp) -> str:
    """What is wrong with a matrix that ``_is_family`` refuses: the first bad
    cell in row order, the diagonal cell ahead of its row."""
    diagonal_off = ~kernel.eq(np.diagonal(a), 0, cmp)
    asymmetric = np.triu(~kernel.eq(a, a.T, cmp), 1)
    nonpositive = np.triu(~(a > 0), 1)
    bad = asymmetric | nonpositive
    i = int(np.argmax(diagonal_off | bad.any(axis=1)))
    if diagonal_off[i]:
        return f"nonzero diagonal at ({i + 1},{i + 1})"
    j = int(np.argmax(bad[i]))
    problem = "asymmetric" if asymmetric[i, j] else "nonpositive 2-weight"
    return f"{problem} at ({i + 1},{j + 1})"


def family_to_csv(family: DistanceFamily) -> str:
    """The n x n matrix document of the family, written from its array in
    blocks of whole rows, at most ``BLOCK_CELLS`` cells each (one
    ``_write_numbers`` call per block), the diagonal cells as "0".

    Each pair is written from both of its cells, which hold the same value
    bit for bit: the reader checks an exact array for symmetry and mirrors
    one read under a tolerance, ``kernel.pair_matrix`` writes both sides,
    and Floyd-Warshall forms d_ik + d_kj and d_jk + d_ki, equal because
    float addition commutes."""
    n = family.n
    a, scale = family.scaled
    step = max(1, BLOCK_CELLS // n)
    lines = []
    for r in range(0, n, step):
        block = a[r : r + step]
        cells = _write_numbers(block.ravel(), scale)
        for k in range(len(block)):
            cells[k * (n + 1) + r] = "0"  # the cell (r + k, r + k)
            lines.append(",".join(cells[k * n : (k + 1) * n]))
    lines.append("")
    return "\n".join(lines)


def graph_parts(graph: WeightedGraph, fmt: str = "json") -> List[str]:
    """The graph document in ``fmt``, "json" (with a newline) or "dot", as parts."""
    if fmt == "dot":
        head = "graph realization {\n" + "".join(f"  {v};\n" for v in range(1, graph.n + 1))
        edges = _edge_blocks(graph, '  %d -- %d [label="%s"];', "\n")
        return [head, *edges, "\n}\n" if edges else "}\n"]
    return [*_graph_parts(graph, ""), "\n"]


def graph_to_json(graph: WeightedGraph) -> str:
    """The graph document ``{"n": n, "edges": [{"u": u, "v": v, "w": "w"},
    ...]}``, weights through ``_write_numbers``, as ``json.dumps(doc,
    indent=2)`` writes it, plus a newline."""
    return "".join(graph_parts(graph))


def graph_to_dot(graph: WeightedGraph) -> str:
    return "".join(graph_parts(graph, "dot"))


def _edge_blocks(graph: WeightedGraph, edge: str, sep: str) -> List[str]:
    """The graph's edges, each written by the format ``edge`` (u, v and the
    weight text, in that order) and joined by ``sep``, as parts: one ``%``
    per block of ``BLOCK_CELLS`` edges read from the columns, ``sep`` between."""
    parts = []
    for s in range(0, len(graph.u), BLOCK_CELLS):
        u = graph.u[s : s + BLOCK_CELLS]
        cells = [None] * (3 * len(u))
        cells[0::3] = (u + 1).tolist()
        cells[1::3] = (graph.v[s : s + BLOCK_CELLS] + 1).tolist()
        cells[2::3] = _write_numbers(graph.w[s : s + BLOCK_CELLS], graph.scale)
        parts += (sep, sep.join([edge] * len(u)) % tuple(cells))
    return parts[1:]


def _graph_parts(graph: WeightedGraph, pad: str) -> List[str]:
    """The graph document as indent-2 JSON whose opening brace sits on a line
    indented by ``pad``, its edge list written by ``_edge_blocks``.
    ``_write_numbers`` writes digits, signs, ".", "/" and the letters of
    float reprs, which JSON strings hold unescaped."""
    inner, item, key = pad + "  ", pad + "    ", pad + "      "
    head = f'{{\n{inner}"n": {graph.n:d},\n{inner}"edges": '
    if not len(graph.u):
        return [f"{head}[]\n{pad}}}"]
    edge = f'{item}{{\n{key}"u": %d,\n{key}"v": %d,\n{key}"w": "%s"\n{item}}}'
    return [head + "[\n", *_edge_blocks(graph, edge, ",\n"), f"\n{inner}]\n{pad}}}"]


def _json_parts(parts: List[str], value, pad: str) -> None:
    """Append the dict, list or tuple ``value`` (str, bool and int leaves) to
    ``parts`` as ``json.dumps(value, indent=2)`` writes it, indented by ``pad``."""
    keyed = isinstance(value, dict)
    if not value:
        parts.append("{}" if keyed else "[]")
        return
    inner, sep = pad + "  ", "{\n" if keyed else "[\n"
    for key, item in value.items() if keyed else enumerate(value):
        line = f"{sep}{inner}{_string(key)}: " if keyed else sep + inner
        if isinstance(item, (dict, list, tuple)):
            parts.append(line)
            _json_parts(parts, item, inner)
        elif isinstance(item, bool):
            parts.append(line + ("true" if item else "false"))
        else:
            parts.append(line + (_string(item) if isinstance(item, str) else f"{item:d}"))
        sep = ",\n"
    parts.append(f"\n{pad}{'}' if keyed else ']'}")


def report_parts(report: "ClassificationReport") -> List[str]:
    """The parts of the classify report as ``json.dumps(doc, indent=2)`` plus a
    newline writes it: ``classes`` (per class ``accepted``, then ``reason``
    and ``realization`` when present), ``conditions``, then ``bipartition``
    and ``planar_witness`` when present.  A graph that several classes return
    (S, mostly) is rendered once, told apart by identity, not by weights."""
    graphs = {}
    parts = ['{\n  "classes": {']
    sep = "\n"
    for name, r in report.verdicts.items():
        parts.append(f'{sep}    {_string(name)}: {{\n      "accepted": {"true" if r.accepted else "false"}')
        if r.reason:
            parts.append(f',\n      "reason": {_string(r.reason)}')
        if r.graph is not None:
            if id(r.graph) not in graphs:
                graphs[id(r.graph)] = [',\n      "realization": ', *_graph_parts(r.graph, "      ")]
            parts += graphs[id(r.graph)]
        parts.append("\n    }")
        sep = ",\n"
    rest, sides, w = {"conditions": report.condition_summary}, report.bipartition, report.planar_witness
    if sides is not None:
        rest["bipartition"] = {"x_side": sorted(sides.x_side), "y_side": sorted(sides.y_side)}
    if w is not None:
        chains = {f"{min(p)},{max(p)}": c for p, c in w.chains.items()}
        rest["planar_witness"] = {"kind": w.kind, "hubs": w.hubs, "chains": chains}
    parts.append("\n  }")
    for key, value in rest.items():
        parts.append(f",\n  {_string(key)}: ")
        _json_parts(parts, value, "  ")
    parts.append("\n}\n")
    return parts


def report_to_json(report: "ClassificationReport") -> str:
    """The classify report, ``report_parts`` joined."""
    return "".join(report_parts(report))


def graph_from_json(text: str, cmp: Cmp = EXACT) -> WeightedGraph:
    """The graph document ``{"n": n, "edges": [{"u": u, "v": v, "w": "w"},
    ...]}`` as a checked, connected graph.  The fields are read as columns
    and checked by the constructor's checker, ``graph._columns``; the first
    fault is reported in document order."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        n = _json_int(doc["n"], "n")
        us, vs, (values, scale) = _fields(doc["edges"], cmp)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed graph document: {exc}") from exc
    w = kernel.scaled_array(values, scale)
    try:
        u, v, order = _columns(n, us, vs, w, lambda i: kernel.numbers(w[i : i + 1], scale)[0], True)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc
    # A connected graph lists n - 1 edges, so the checks so far cost no more
    # than reading the document; the kernel's n x n matrices come later.
    _check_size(n)
    return WeightedGraph._of_arrays(n, u, v, w[order], scale, connected=True)


def _fields(items, cmp: Cmp):
    """The u, v and w columns of the document's edge list: the vertex types
    checked in one pass, the weights read as one ``_read_numbers`` list
    into (values, scale).  A missing field, a vertex that is not a JSON
    integer or a malformed weight is named per edge, the first in document
    order; the graph's own rules are the checker's."""
    try:
        us, vs, ws = [e["u"] for e in items], [e["v"] for e in items], [e["w"] for e in items]
    except (KeyError, TypeError):
        us = vs = ws = None
    if us is None or not set(map(type, us + vs)) <= {int}:
        # some edge failed the column pass, so this loop raises
        for e in items:
            _json_int(e["u"], "u"), _json_int(e["v"], "v"), parse_number(str(e["w"]), cmp)
    return us, vs, _read_numbers(list(map(str, ws)), cmp)


def _json_int(value, key: str) -> int:
    # JSON integers only: int() would make 1.6 and true (a bool is an int)
    # both vertex 1
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {json.dumps(value)}")
    return value

