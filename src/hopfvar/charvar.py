"""Character-variety E-polynomials for ranks 2 and 3.

The character variety is the moduli of semisimple pairs (A, B) with A^n
commuting with B, up to simultaneous conjugation.  It splits into a reducible
locus (computed from lower-rank irreducibles) and an irreducible locus, which
is only populated by pairs where A^n is central.  The pieces are
transcriptions except ``red_21``, the irreducible GL2 locus: its transcribed
values have degree 3 on that 4-dimensional locus, so it follows F_q counts
of the locus (tests/_oracles.py), and so does the rank-3 closed formula in
``char_variety_epoly_formula``.  The piece sums must equal the closed
formulas, which the test suite enforces for both ranks.

Pieces, by name:

* rank 2: ``red_total`` (diagonal pairs up to swap), ``irr_total``
  (eigenvalue swap classes x non-commuting second generator), ``total``.
* rank 3: ``red_111`` (sums of three characters), ``red_21`` (irreducible
  2-dimensional plus a character), ``irr_distinct`` (A with three distinct
  eigenvalues), ``irr_repeated`` (A with a repeated eigenvalue), plus
  ``red_total``, ``irr_total`` and ``total``.
"""

from __future__ import annotations

from .poly import Poly, Q
from .strata import check_rank, check_twists

__all__ = ["PIECES", "char_pieces", "char_piece_epoly", "char_variety_epoly_formula"]

# The rank-3 (2,1) reducible locus is the irreducible GL2 locus: A' has
# eigenvalues a, za with z^n = 1, z != 1.  A pair {z, 1/z} of distinct twist
# classes contributes the first value; the self-inverse class z = -1 (even n
# only) the second, its split and non-split A' together.
_RED21_PAIRED = (Q - 1) ** 2 * (Q ** 2 - Q + 1)
_RED21_SELF = Q * (Q - 1) ** 3

# Sum over the three position patterns of the second generator for a
# distinct-eigenvalue A: q^6 - 4q^4 + 5q^3 - 3q^2 + q, plus twice
# q^5 - 2q^3 + 3q^2 - 2q + 1.
_IRR_DISTINCT_SLICE = Poly([2, -3, 3, 1, -4, 2, 1])
# Diagonalizable + non-diagonalizable second-block cases for a repeated
# eigenvalue: q^4 - q^3 + q^2 - q + 1.
_IRR_REPEATED_SLICE = Poly([1, -1, 1, -1, 1])
# Rank-2 diagonal pairs up to swap, and the slice of one twist class of
# irreducibles; rank-3 sums of three characters.
_R2_RED = Q ** 2 + 1
_R2_IRR_SLICE = Q ** 2 - Q + 1
_R3_RED111 = Q ** 4 + Q ** 2 + 1

# n-independent terms of the closed formulas.  They repeat some of the
# pieces' polynomials on purpose: a slip in one copy then shows as a mismatch
# between the pieces and the formula.
_F_Q2_1 = Q ** 2 + 1
_F_Q2_Q_1 = Q ** 2 - Q + 1
_F_Q4_Q2_1 = Q ** 4 + Q ** 2 + 1
_F_Q_QM1_3 = Q * (Q - 1) ** 3
_F_QM1_2_Q2_Q_M1 = (Q - 1) ** 2 * (Q ** 2 - Q - 1)
_F_Q6_2Q5 = Q ** 6 + 2 * Q ** 5 - 4 * Q ** 4 + Q ** 3 + 3 * Q ** 2 - 3 * Q + 2
_F_Q4_Q3 = Q ** 4 - Q ** 3 + Q ** 2 - Q + 1


def char_pieces(rank: int, n: int) -> dict[str, Poly]:
    """E-polynomial of every character-variety piece at twist count n, in
    PIECES order: each leaf is computed once, each aggregate is the sum of
    its leaves."""
    check_twists(n)
    if check_rank(rank) == 2:
        red, irr = _R2_RED, (n - 1) * _R2_IRR_SLICE
        return {"red_total": red, "irr_total": irr, "total": red + irr}
    # red_21: (n-1) twist classes, floor((n-1)/2) inverse pairs, plus the
    # self-inverse class when n is even
    half = (n - 1) // 2
    red_21 = Poly.combine([(half, _RED21_PAIRED), (n - 1 - 2 * half, _RED21_SELF)])
    irr_repeated = (3 * n - 3) * _IRR_REPEATED_SLICE
    # (n-1)(n-2) is always even
    irr_distinct = ((n - 1) * (n - 2) * _IRR_DISTINCT_SLICE).exact_div(2)
    red, irr = _R3_RED111 + red_21, irr_repeated + irr_distinct
    return {"red_111": _R3_RED111, "red_21": red_21, "red_total": red,
            "irr_repeated": irr_repeated, "irr_distinct": irr_distinct,
            "irr_total": irr, "total": red + irr}


#: The piece names of each rank, in the order char_pieces returns them.
PIECES = {rank: tuple(char_pieces(rank, 1)) for rank in (2, 3)}


def char_piece_epoly(rank: int, piece: str, n: int) -> Poly:
    """E-polynomial of one character-variety piece at twist count n."""
    check_twists(n)
    if piece not in PIECES[check_rank(rank)]:
        raise ValueError(f"invalid piece {piece!r} for rank {rank}")
    return char_pieces(rank, n)[piece]


def char_variety_epoly_formula(rank: int, n: int) -> Poly:
    """Closed character-variety formula, with exact integer handling of the
    half-integer and floor terms and the corrected rank-3 red_21 terms."""
    check_twists(n)
    if check_rank(rank) == 2:
        return _F_Q2_1 + (n - 1) * _F_Q2_Q_1
    # (n-1)(n-2) is always even, so its half is exact
    return Poly.combine([(1, _F_Q4_Q2_1), ((n - 1) * (n - 2) // 2, _F_Q6_2Q5),
                         (-((n - 1) // 2), _F_QM1_2_Q2_Q_M1),
                         (3 * (n - 1), _F_Q4_Q3), (n - 1, _F_Q_QM1_3)])
