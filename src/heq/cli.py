"""Command line front end.

Matrices are given as positional arguments in the text form [[a,b],[c,d]]
(whitespace optional) or as JSON objects {"m": [[a,b],[c,d]]}; for the
commands taking a subgroup, the last matrix is g.  Exit codes: 0 success,
1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .enumeration import enumerate_kernel
from .equations import HContext, format_eq_word, render_equation
from .freewords import format_free_word, format_word
from .pipeline import AnalysisReport, analyze, equation_schreier_graph, verify
from .psl2 import NotUnimodular, ProjMat2
from .schreier import to_dot
from .words import abelianize, decompose, format_ab_word, image_pair


class InputError(ValueError):
    pass


def parse_matrix(text: str) -> ProjMat2:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"cannot parse matrix {text!r}: {exc}") from None
    if isinstance(data, dict):
        data = data.get("m")
    try:
        return ProjMat2.from_rows(data)
    except TypeError as exc:
        raise InputError(f"matrix {text!r}: {exc}") from None


def _split_inputs(matrices: list[str]) -> tuple[list[ProjMat2], ProjMat2]:
    if not matrices:
        raise InputError("expected at least the matrix g")
    mats = [parse_matrix(m) for m in matrices]
    return mats[:-1], mats[-1]


def _pi(image: int) -> str:
    """An image in Z/6 as its (C2, C3) pair: 3 -> '(1,0)'."""
    return "({},{})".format(*image_pair(image))


def cmd_decompose(args) -> int:
    word = decompose(parse_matrix(args.matrix))
    print(f"{format_ab_word(word) or '(empty)'} | pi={_pi(abelianize(word))}")
    return 0


def _print_text_report(report: AnalysisReport, show_matrices: bool) -> None:
    ctx = report.ctx
    for i, (mat, word, image) in enumerate(zip(ctx.h_mats, ctx.h_words, ctx.h_images()),
                                           start=1):
        print(f"h{i} = {mat} = {format_ab_word(word) or '(empty)'} | pi={_pi(image)}")
    g_word = format_ab_word(ctx.g_word) or "(empty)"
    print(f"g  = {ctx.g_mat} = {g_word} | pi={_pi(ctx.g_image())}")
    print(f"index [H*<x> : I_H(g;F)] = {report.index}")
    print(f"generators of I_H(g;F) ({len(report.w_words)}):")
    for w in report.w_words:
        mark = "  (trivial)" if ctx.is_trivial(w) else ""
        print(f"  {format_eq_word(w, ctx)}{mark}")
    print("values at g in the free kernel:")
    for v in report.v_words:
        print(f"  {format_free_word(v) or '(empty)'}")
    print(f"presentation: rank {report.presentation.rank}, "
          f"{len(report.presentation.relators)} relator(s)")
    nontrivial = report.nontrivial_ideal_equations()
    print(f"ideal generators ({len(nontrivial)} nontrivial):")
    for eq in report.ideal_equations:
        mark = "  (trivial)" if eq.is_trivial() else ""
        print(f"  {render_equation(eq, ctx)}{mark}")
        if show_matrices and not eq.is_trivial():
            print(f"    = {render_equation(eq, ctx, matrices=True)} = I")
    print(f"VERDICT: {report.verdict.upper()}")


def cmd_analyze(args) -> int:
    h_mats, g_mat = _split_inputs(args.matrices)
    report = analyze(h_mats, g_mat)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        _print_text_report(report, args.show_matrices)
    return 0


def _matches(rendered, given) -> bool:
    """True iff given holds the rendered JSON value; keys that only given
    has, such as those of older report formats, are ignored."""
    if isinstance(rendered, dict):
        return isinstance(given, dict) and all(
            key in given and _matches(value, given[key]) for key, value in rendered.items())
    if isinstance(rendered, list):
        return (isinstance(given, list) and len(given) == len(rendered)
                and all(map(_matches, rendered, given)))
    return type(given) is type(rendered) and given == rendered


def cmd_verify(args) -> int:
    if args.report == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.report) as fh:
            data = json.load(fh)
    try:
        report = AnalysisReport.from_dict(data)
    except TypeError as exc:
        # a value of the wrong JSON type: an input error, like a missing key
        raise InputError(f"report has the wrong shape: {exc}") from None
    result = verify(report)
    print(result.summary())
    # verify checks the raw words; the display fields (equation texts,
    # trivial flags, a/b-words, images, ...) must be what they render to
    rendered = report.to_dict()
    differ = [key for key, value in rendered.items()
              if key not in data or not _matches(value, data[key])]
    if differ:
        print(f"FAIL rendered fields match the report: {', '.join(differ)} differ")
    else:
        print(f"PASS rendered fields match the report: {len(rendered)} keys")
    return 0 if result.ok and not differ else 1


def cmd_oracle(args) -> int:
    h_mats, g_mat = _split_inputs(args.matrices)
    ctx = HContext(h_mats, g_mat)
    result = enumerate_kernel(ctx, args.max_len)
    # one JSON object a line, as json.dumps would write it: the letter
    # names h1..hs and x and the ^, - and digits of powers need no escaping
    sys.stdout.write("".join(
        f'{{"word": "{format_eq_word(word, ctx)}", "length": {len(word)}}}\n'
        for word in result.witnesses))
    print(f"{len(result.witnesses)} witness(es) up to length {args.max_len}",
          file=sys.stderr)
    return 0


def cmd_schreier(args) -> int:
    h_mats, g_mat = _split_inputs(args.matrices)
    ctx = HContext(h_mats, g_mat)
    graph = equation_schreier_graph(ctx)
    if args.dot:
        print(to_dot(graph))
    else:
        for v, rep in enumerate(graph.reps):
            hops = []
            for letter in range(1, len(graph.letters) + 1):
                target = graph.trans[(v, letter)]
                tree = "*" if (v, letter) in graph.tree else ""
                hops.append(f"{graph.letters[letter - 1]}->{target}{tree}")
            print(f"{v}: {format_word(rep, graph.letters) or '1'} | {' '.join(hops)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heq",
        description="Algebraicity of 2x2 integral matrices over subgroups of "
                    "PSL2(Z), with generators of the equation ideal.")
    parser.add_argument("--version", action="version", version=f"heq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="write a matrix as a word in a, b")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("analyze", help="decide algebraicity and compute the ideal")
    p.add_argument("matrices", nargs="+", metavar="MATRIX",
                   help="h_1 .. h_s followed by g")
    p.add_argument("--json", action="store_true",
                   help="emit the JSON report instead of text")
    p.add_argument("--show-matrices", action="store_true",
                   help="also print equations in matrix form")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="re-check an analyze --json report")
    p.add_argument("report", help="report path, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force witness search")
    p.add_argument("matrices", nargs="+", metavar="MATRIX")
    p.add_argument("--max-len", type=int, default=8)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("schreier", help="dump the Schreier graph of I_H(g;F)")
    p.add_argument("matrices", nargs="+", metavar="MATRIX")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of text")
    p.set_defaults(func=cmd_schreier)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, NotUnimodular, OSError,
            json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
