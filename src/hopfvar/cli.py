"""Command-line front end: compute, tabulate, and cross-verify.

Subcommands:

* ``rep``    E-polynomial of the representation variety (formula, stratum
             sum, or both with a MATCH verdict).
* ``char``   E-polynomial of the character variety, optionally broken into
             reducible/irreducible pieces.
* ``count``  exact finite-field point count, optionally asserted against the
             closed-formula polynomial.
* ``table``  one row per twist count, as CSV, JSON or LaTeX; a JSON table
             checks each row's formula against the stratum sum (``rep``)
             or the piece total (``char``).

Exit codes: 0 success/match, 1 verified mismatch (a finding), 2 usage or
precondition error.  A refusal (a usage error, bad n or q, a field over the
class budget, an inadmissible ``--assert``, a bad table range, an answer with
an integer too long to print) prints one short ``error:`` line on stderr,
naming a long input by its size, and nothing on stdout, which each command
renders whole first.  Data goes to stdout and is deterministic; timings to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
import time

from . import charvar, ffcount, geom
from .poly import Poly
from .strata import shown

#: Longest twist range ``table`` accepts; a longer one is refused (exit 2)
#: before any row is built.
MAX_TABLE_ROWS = 10_000
#: Most rows times digits of the upper bound ``table`` accepts, since a row's
#: text grows with the digits of n; a range past it is refused the same way.
MAX_TABLE_DIGITS = 200_000
#: Bytes every usage-error line, newline included, stays under.
_LINE_BYTES = 200


def _render(p: Poly, latex: bool) -> str:
    return p.to_latex() if latex else p.to_ascii()


def _verdict(ok: bool) -> int:
    print("MATCH" if ok else "MISMATCH")
    return 0 if ok else 1


def _cmd_rep(args) -> int:
    formula = strata = None
    if args.method in ("formula", "both"):
        formula = geom.rep_variety_epoly_formula(args.rank, args.n)
    if args.method in ("strata", "both"):
        strata = geom.rep_variety_epoly_strata(args.rank, args.n)
    if formula is not None:
        print(f"formula: {_render(formula, args.latex)}")
    if strata is not None:
        print(f"strata:  {_render(strata, args.latex)}")
    if args.method == "both":
        return _verdict(formula == strata)
    return 0


def _cmd_char(args) -> int:
    total = charvar.char_variety_epoly_formula(args.rank, args.n)
    if not args.pieces:
        print(_render(total, args.latex))
        return 0
    # the last piece, "total", is the piece sum checked against the formula
    for piece in charvar.PIECES[args.rank]:
        value = charvar.char_piece_epoly(args.rank, piece, args.n)
        print(f"{piece.removesuffix('_total')}: {_render(value, args.latex)}")
    if value != total:
        print("MISMATCH (piece sum differs from closed formula)")
        return 1
    return 0


def _cmd_count(args) -> int:
    modulus = ffcount.admissibility_modulus(args.rank, args.n)
    admissible = ffcount.is_admissible(args.rank, args.n, args.q)
    if args.check and not admissible:
        raise ValueError(f"--assert requires {shown(modulus)} | q-1 (got q={shown(args.q)})")
    count = ffcount.count_rep_variety_points(args.rank, args.n, args.q, threads=args.threads)
    print(f"count: {count}")
    if not admissible:
        print(f"no equality asserted ({shown(modulus)} does not divide {args.q - 1})")
    if not args.check:  # an inadmissible q with --assert was refused above
        return 0
    expected = geom.rep_variety_epoly_formula(args.rank, args.n).evaluate(args.q)
    print(f"expected: {expected}")
    return _verdict(count == expected)


def _parse_range(text: str) -> list[int]:
    bounds = text.split("..", 1) if ".." in text else (text, text)
    try:
        lo, hi = (int(b) for b in bounds)
    except ValueError:  # not an integer, or one past the interpreter's digit limit
        raise ValueError(f"invalid range {shown(text)}") from None
    if lo < 1 or hi < lo:
        raise ValueError(f"empty or invalid range {shown(text)}")
    if hi - lo >= MAX_TABLE_ROWS:
        raise ValueError(f"range {shown(text)} has more than {MAX_TABLE_ROWS} rows")
    rows, digits = hi - lo + 1, len(str(hi))
    if rows * digits > MAX_TABLE_DIGITS:
        raise ValueError(f"range {shown(text)} has {rows} rows of up to {digits} digits, "
                         f"more than {MAX_TABLE_DIGITS} in all")
    return list(range(lo, hi + 1))


def _descending_coeffs(p: Poly) -> list[int]:
    return list(reversed(p.coeffs)) if p.coeffs else [0]


def _table_rows(rank: int, ns: list[int], target: str,
                with_strata: bool) -> list[tuple[Poly, dict]]:
    """(polynomial, row) per twist count; the stratum assembly of a rep row
    is computed only when with_strata."""
    formula = (geom.rep_variety_epoly_formula if target == "rep"
               else charvar.char_variety_epoly_formula)
    rows = []
    for n in ns:
        p = formula(rank, n)
        row = {"n": n, "degree": p.degree, "coefficients": _descending_coeffs(p),
               "eval_q2": p.evaluate(2)}
        if target == "rep":
            row["formula"] = row["coefficients"]
            if with_strata:
                row["strata"] = _descending_coeffs(geom.rep_variety_epoly_strata(rank, n))
        rows.append((p, row))
    return rows


def _cmd_table(args) -> int:
    rows = _table_rows(args.rank, _parse_range(args.n), args.target, args.format == "json")

    if args.format == "json":
        print(json.dumps([row for _, row in rows], indent=2))
        # each row against its second route: the stratum sum, or the piece total
        if args.target == "rep":
            bad = [row["n"] for _, row in rows if row["strata"] != row["formula"]]
        else:
            bad = [row["n"] for p, row in rows
                   if charvar.char_piece_epoly(args.rank, "total", row["n"]) != p]
        for n in bad:
            print(f"MISMATCH at n={n}", file=sys.stderr)
        return 1 if bad else 0
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "degree", "coefficients", "eval_q2"])
        for _, row in rows:
            writer.writerow([row["n"], row["degree"],
                             ",".join(str(c) for c in row["coefficients"]),
                             row["eval_q2"]])
        return 0
    # latex
    print(r"\begin{align*}")
    for p, row in rows:
        print(f"n={row['n']}:&\\quad {p.to_latex()}\\\\")
    print(r"\end{align*}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are one ``error:`` line, cut to under _LINE_BYTES as stderr encodes it."""
    def error(self, message: str):
        encoding = getattr(sys.stderr, "encoding", None) or "utf-8"
        line = f"error: {message}\n".encode(encoding, "backslashreplace")
        if len(line) >= _LINE_BYTES:  # argparse's messages echo their input
            tail = f"... <message of {len(message)} characters>\n".encode(encoding)
            line = line[:_LINE_BYTES - 1 - len(tail)] + tail
        self.exit(2, line.decode(encoding, "ignore"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hopfvar",
        description="Exact E-polynomials of SL2/SL3 representation and "
                    "character varieties of twisted Hopf links.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--rank", type=int, metavar="{2,3}", required=True)
        p.add_argument("--n", type=int, required=True, help="twist count, >= 1")

    p_rep = sub.add_parser("rep", help="representation-variety E-polynomial")
    add_common(p_rep)
    p_rep.add_argument("--method", choices=("formula", "strata", "both"),
                       default="formula")
    p_rep.add_argument("--latex", action="store_true")

    p_char = sub.add_parser("char", help="character-variety E-polynomial")
    add_common(p_char)
    p_char.add_argument("--pieces", action="store_true",
                        help="print the reducible/irreducible breakdown")
    p_char.add_argument("--latex", action="store_true")

    p_count = sub.add_parser("count", help="finite-field point count")
    add_common(p_count)
    p_count.add_argument("--q", type=int, required=True, help="odd prime field size")
    p_count.add_argument("--assert", dest="check", action="store_true",
                         help="compare against the closed-formula polynomial")
    p_count.add_argument("--threads", type=int, default=None,
                         help="accepted and has no effect: the sweep is serial")

    p_table = sub.add_parser("table", help="tabulate over a range of twist counts")
    p_table.add_argument("--rank", type=int, metavar="{2,3}", required=True)
    p_table.add_argument("--n", type=str, required=True, help="range, e.g. 1..8")
    p_table.add_argument("--target", choices=("rep", "char"), required=True)
    p_table.add_argument("--format", choices=("csv", "latex", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = {"rep": _cmd_rep, "char": _cmd_char, "count": _cmd_count,
               "table": _cmd_table}[args.command]
    started = time.perf_counter()
    out = io.StringIO()
    try:
        # every refusal of input, the library's and the CLI's own, comes
        # before heavy work; stdout is rendered whole before any of it is
        # written, so an answer refused while rendering leaves it empty
        with contextlib.redirect_stdout(out):
            code = command(args)
    except ValueError as exc:
        reason = str(exc)
        if "integer string conversion" in reason:  # Python's int -> str digit limit
            reason = (f"the answer has an integer longer than {sys.get_int_max_str_digits()}"
                      " digits, this Python's limit for printing one")
        print(f"error: {reason}", file=sys.stderr)
        return 2
    sys.stdout.write(out.getvalue())
    print(f"[timing] {(time.perf_counter() - started) * 1000.0:.2f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
