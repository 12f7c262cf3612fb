"""Command-line surface tying recognizers, pruning, generators, and formats.

Exit codes: 0 = accepted / success, 1 = rejected (valid input, negative
verdict), 2 = input error (a bad tolerance included) or a closed output
pipe.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys

from .classify import classify, recognizers
from .comparison import Cmp, DEFAULT_TOL, EXACT
from .family import FamilyError
from .generators import GenSpec, GenerationError, generate
from .graph import GraphError, prune, two_weights, verify_realization
from .serialize import (
    ParseError,
    family_to_csv,
    graph_from_json,
    graph_parts,
    parse_family_csv,
    report_parts,
)

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT_ERROR = 2

# ``--class`` names: the report's class names, hyphenated
CLASS_NAMES = sorted(name.replace("_", "-") for name in recognizers())


def _cmp_from_args(args) -> Cmp:
    if args.tol is None:
        return EXACT
    try:
        return Cmp(args.tol)
    except ValueError as exc:
        raise ParseError(f"--tol: {exc}") from None


def _read(path: str) -> str:
    """The document at ``path`` (stdin for "-") without a leading UTF-8 byte
    order mark, which editors such as Excel ("CSV UTF-8") write.  A path
    that cannot be read (missing, a directory, no permission) or bytes that
    are not UTF-8 are input errors that name the path."""
    name = "standard input" if path == "-" else path
    try:
        if path == "-":
            return sys.stdin.read().removeprefix("\ufeff")
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {name}: {exc.strerror or exc}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help="float mode with relative tolerance (default 1e-9 when the next "
        "argument is not a number); omit for exact rationals",
    )


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _default_bare_tol(argv):
    """``--tol`` takes the next argument only when it is a number; otherwise
    it stands for the default tolerance, so ``--tol m.csv`` keeps m.csv as
    the path and a trailing ``--tol`` still works."""
    argv = list(argv)
    for k, token in enumerate(argv):
        following = argv[k + 1 : k + 2]
        if token == "--tol" and not (following and _is_number(following[0])):
            argv[k] = f"--tol={DEFAULT_TOL!r}"
    return argv


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change
    it, and building it costs more than a small ``classify``."""
    parser = argparse.ArgumentParser(
        prog="metric-realize",
        description="Decide which weighted-graph classes realize a family of pairwise distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="compute the distance matrix of a graph")
    p.add_argument("graph", help="graph JSON file (or - for stdin)")
    _add_common(p)

    p = sub.add_parser("check", help="run one class recognizer, verdict only")
    p.add_argument("--class", dest="class_name", required=True, choices=CLASS_NAMES)
    p.add_argument("matrix", help="distance matrix CSV file (or -)")
    _add_common(p)

    p = sub.add_parser("realize", help="run one recognizer and print the realization")
    p.add_argument("--class", dest="class_name", required=True, choices=CLASS_NAMES)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("matrix")
    _add_common(p)

    p = sub.add_parser("classify", help="run every recognizer, JSON report")
    p.add_argument("matrix")
    _add_common(p)

    p = sub.add_parser("prune", help="remove useless edges from a graph")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("graph")
    _add_common(p)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--class", dest="class_name", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", choices=("int", "decimal"), default="int")
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--hi", type=int, default=20)
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser("verify", help="check that a graph realizes a matrix exactly")
    p.add_argument("graph")
    p.add_argument("matrix")
    _add_common(p)

    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_default_bare_tol(argv))
    try:
        return _dispatch(args)
    except (ParseError, FamilyError, GraphError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _dispatch(args) -> int:
    if args.command == "weights":
        cmp = _cmp_from_args(args)
        graph = graph_from_json(_read(args.graph), cmp)
        sys.stdout.write(family_to_csv(two_weights(graph, cmp)))
        return EXIT_OK

    if args.command in ("check", "realize"):
        cmp = _cmp_from_args(args)
        family = parse_family_csv(_read(args.matrix), cmp)
        result = recognizers()[args.class_name.replace("-", "_")](family)
        if result.accepted:
            if args.command == "realize":
                sys.stdout.writelines(graph_parts(result.graph, args.format))
            else:
                print(f"{args.class_name}: accepted")
            return EXIT_OK
        print(f"{args.class_name}: rejected ({result.reason})")
        return EXIT_REJECTED

    if args.command == "classify":
        cmp = _cmp_from_args(args)
        family = parse_family_csv(_read(args.matrix), cmp)
        sys.stdout.writelines(report_parts(classify(family)))
        return EXIT_OK

    if args.command == "prune":
        cmp = _cmp_from_args(args)
        graph = graph_from_json(_read(args.graph), cmp)
        sys.stdout.writelines(graph_parts(prune(graph, cmp), args.format))
        return EXIT_OK

    if args.command == "gen":
        spec = GenSpec(
            class_id=args.class_name.replace("-", "_"),
            n=args.n,
            seed=args.seed,
            weight_kind=args.weights,
            lo=args.lo,
            hi=args.hi,
        )
        sys.stdout.writelines(graph_parts(generate(spec), args.format))
        return EXIT_OK

    if args.command == "verify":
        cmp = _cmp_from_args(args)
        graph = graph_from_json(_read(args.graph), cmp)
        family = parse_family_csv(_read(args.matrix), cmp)
        if verify_realization(graph, family):
            print("verified")
            return EXIT_OK
        print("mismatch: the graph does not realize the matrix")
        return EXIT_REJECTED

    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        # ``python -u``: a text layer straight on the file ignores a partial
        # write, so a reader that closed in the middle of a report would
        # leave the exit code at 0.  A buffered layer writes the rest and
        # raises BrokenPipeError.
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(sys.stdout.buffer), sys.stdout.encoding, sys.stdout.errors, write_through=True
        )
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``).  Point stdout at devnull so
        # the interpreter's own flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: broken pipe: the reader closed the output early", file=sys.stderr)
        code = EXIT_INPUT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
