"""Command-line front end: compute, tabulate, and cross-verify.

Subcommands:

* ``rep``    E-polynomial of the representation variety (formula, stratum
             sum, or both with a MATCH verdict).
* ``char``   E-polynomial of the character variety, optionally broken into
             reducible/irreducible pieces.
* ``count``  exact finite-field point count, optionally asserted against the
             closed-formula polynomial.
* ``table``  one row per twist count, as CSV, JSON or LaTeX.

Exit codes: 0 success/match, 1 verified mismatch (a finding), 2 usage or
precondition error.  Data goes to stdout and is deterministic; timings go to
stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field

from . import charvar, ffcount, geom
from .poly import Poly

#: Longest twist range ``table`` accepts; a longer one is refused (exit 2)
#: before any row is built.
MAX_TABLE_ROWS = 10_000


@dataclass
class VerificationReport:
    """Outcome of comparing independent computations of one E-polynomial."""

    rank: int
    n: int
    formula: Poly | None = None
    strata: Poly | None = None
    counts: list[tuple[int, int]] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def strata_match(self) -> bool | None:
        if self.formula is None or self.strata is None:
            return None
        return self.formula == self.strata

    def count_matches(self) -> list[tuple[int, bool]]:
        if self.formula is None:
            return []
        return [(q, self.formula.evaluate(q) == c) for q, c in self.counts]

    @property
    def all_match(self) -> bool:
        if self.strata_match is False:
            return False
        return all(ok for _, ok in self.count_matches())


def _render(p: Poly, latex: bool) -> str:
    return p.to_latex() if latex else p.to_ascii()


def _cmd_rep(args) -> int:
    started = time.perf_counter()
    report = VerificationReport(rank=args.rank, n=args.n)
    if args.method in ("formula", "both"):
        report.formula = geom.rep_variety_epoly_formula(args.rank, args.n)
    if args.method in ("strata", "both"):
        report.strata = geom.rep_variety_epoly_strata(args.rank, args.n)
    report.elapsed_ms = (time.perf_counter() - started) * 1000.0

    if report.formula is not None:
        print(f"formula: {_render(report.formula, args.latex)}")
    if report.strata is not None:
        print(f"strata:  {_render(report.strata, args.latex)}")
    print(f"[timing] {report.elapsed_ms:.2f} ms", file=sys.stderr)
    if args.method == "both":
        ok = report.strata_match
        print("MATCH" if ok else "MISMATCH")
        return 0 if ok else 1
    return 0


def _cmd_char(args) -> int:
    started = time.perf_counter()
    total = charvar.char_variety_epoly_formula(args.rank, args.n)
    lines, mismatch = [], False
    if args.pieces:
        if args.rank == 2:
            names = [("red", "red_total"), ("irr", "irr_total")]
        else:
            names = [("red_111", "red_111"), ("red_21", "red_21"),
                     ("red", "red_total"), ("irr_repeated", "irr_repeated"),
                     ("irr_distinct", "irr_distinct"), ("irr", "irr_total")]
        for label, piece in names:
            value = charvar.char_piece_epoly(args.rank, piece, args.n)
            lines.append(f"{label}: {_render(value, args.latex)}")
        piece_total = charvar.char_piece_epoly(args.rank, "total", args.n)
        lines.append(f"total: {_render(piece_total, args.latex)}")
        mismatch = piece_total != total
        if mismatch:
            lines.append("MISMATCH (piece sum differs from closed formula)")
    else:
        lines.append(_render(total, args.latex))
    elapsed = (time.perf_counter() - started) * 1000.0
    print("\n".join(lines))
    print(f"[timing] {elapsed:.2f} ms", file=sys.stderr)
    return 1 if mismatch else 0


def _cmd_count(args, parser: argparse.ArgumentParser) -> int:
    admissible = ffcount.is_admissible(args.rank, args.n, args.q)
    if args.check and not admissible:
        parser.error(
            f"--assert requires {ffcount.admissibility_modulus(args.rank, args.n)} | q-1 "
            f"(got q={args.q})")
    started = time.perf_counter()
    count = ffcount.count_rep_variety_points(args.rank, args.n, args.q, threads=args.threads)
    report = VerificationReport(rank=args.rank, n=args.n, counts=[(args.q, count)],
                                elapsed_ms=(time.perf_counter() - started) * 1000.0)

    print(f"count: {count}")
    print(f"[timing] {report.elapsed_ms:.2f} ms", file=sys.stderr)
    if not admissible:
        mod = ffcount.admissibility_modulus(args.rank, args.n)
        print(f"no equality asserted ({mod} does not divide {args.q - 1})")
        return 0
    report.formula = geom.rep_variety_epoly_formula(args.rank, args.n)
    if args.check:
        print(f"expected: {report.formula.evaluate(args.q)}")
        if report.all_match:
            print("MATCH")
            return 0
        print("MISMATCH")
        return 1
    return 0


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise ValueError(f"empty or invalid range {text!r}")
    if hi - lo >= MAX_TABLE_ROWS:
        raise ValueError(f"range {text!r} has more than {MAX_TABLE_ROWS} rows")
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


def _cmd_table(args, parser: argparse.ArgumentParser) -> int:
    try:
        ns = _parse_range(args.n)
    except ValueError as exc:
        parser.error(str(exc))
    rows = _table_rows(args.rank, ns, args.target, args.format == "json")

    if args.format == "json":
        print(json.dumps([row for _, row in rows], indent=2))
        return 0
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "degree", "coefficients", "eval_q2"])
        for _, row in rows:
            writer.writerow([row["n"], row["degree"],
                             ",".join(str(c) for c in row["coefficients"]),
                             row["eval_q2"]])
        sys.stdout.write(buf.getvalue())
        return 0
    # latex
    print(r"\begin{align*}")
    for p, row in rows:
        print(f"n={row['n']}:&\\quad {p.to_latex()}\\\\")
    print(r"\end{align*}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfvar",
        description="Exact E-polynomials of SL2/SL3 representation and "
                    "character varieties of twisted Hopf links.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--rank", type=int, choices=(2, 3), required=True)
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
    p_count.add_argument("--threads", type=int, default=None)

    p_table = sub.add_parser("table", help="tabulate over a range of twist counts")
    p_table.add_argument("--rank", type=int, choices=(2, 3), required=True)
    p_table.add_argument("--n", type=str, required=True, help="range, e.g. 1..8")
    p_table.add_argument("--target", choices=("rep", "char"), required=True)
    p_table.add_argument("--format", choices=("csv", "latex", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the library refuses a bad n, a bad q or a huge field before heavy work
        if args.command == "count":
            return _cmd_count(args, parser)
        if args.command == "rep":
            return _cmd_rep(args)
        if args.command == "char":
            return _cmd_char(args)
        return _cmd_table(args, parser)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
