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

The pieces count twist classes in m = n - 1, on the twist basis of
``strata``, b(n) = (1, n, C(n, 2), floor(n/2)), by m = n - 1,
floor(m/2) = n - 1 - floor(n/2) and C(m, 2) = C(n, 2) - n + 1.  ``_TABLE`` gives
each leaf piece as its row of (index, Poly) terms on b(n), and each aggregate
as the names of its parts, whose rows are summed once at import; so each
piece at n, a total too, is one ``strata.twist_sum``, as the rank-3 closed
formula is.  The pieces, in table order:

* rank 2: ``red_total`` (diagonal pairs up to swap), ``irr_total``
  (eigenvalue swap classes x non-commuting second generator), ``total``.
* rank 3: ``red_111`` (sums of three characters), ``red_21`` (irreducible
  2-dimensional plus a character), ``red_total``, ``irr_repeated`` (A with a
  repeated eigenvalue), ``irr_distinct`` (A with three distinct eigenvalues),
  ``irr_total`` and ``total``.
"""

from __future__ import annotations

from .poly import Poly, Q
from .strata import check_rank, check_twists, shown, twist_row, twist_sum

__all__ = ["PIECES", "char_piece_epoly", "char_variety_epoly_formula"]

_TABLE = {
    # diagonal pairs up to swap; m twist classes of irreducibles, m (q^2 - q + 1)
    2: {"red_total": ((0, Q ** 2 + 1),),
        "irr_total": ((0, -(Q ** 2 - Q + 1)), (1, Q ** 2 - Q + 1)),
        "total": ("red_total", "irr_total")},
    # red_21, the irreducible GL2 locus: A' has eigenvalues a, za, z^n = 1 != z.
    # Each of the m classes z counts q(q-1)^3, as z = -1 does (split and
    # non-split A'); each of the floor(m/2) pairs {z, 1/z} counts (q-1)^2(q^2-q+1)
    # in place of two, so (n - 1)(q-1)^2 + floor(n/2) (q-1)^2(q^2-q-1) in all.
    # irr_repeated: 3m classes, B's second block diagonalizable or not.
    # irr_distinct: C(m, 2) classes, over B's three position patterns.
    3: {"red_111": ((0, Q ** 4 + Q ** 2 + 1),),
        "red_21": ((0, -(Q - 1) ** 2), (1, (Q - 1) ** 2), (3, (Q - 1) ** 2 * (Q ** 2 - Q - 1))),
        "red_total": ("red_111", "red_21"),
        "irr_repeated": ((0, -3 * Poly([1, -1, 1, -1, 1])), (1, 3 * Poly([1, -1, 1, -1, 1]))),
        "irr_distinct": ((0, Poly([2, -3, 3, 1, -4, 2, 1])), (1, -Poly([2, -3, 3, 1, -4, 2, 1])),
                         (2, Poly([2, -3, 3, 1, -4, 2, 1]))),
        "irr_total": ("irr_repeated", "irr_distinct"),
        "total": ("red_total", "irr_total")},
}


def _rows(table: dict) -> dict[str, tuple[tuple[int, Poly], ...]]:
    """Each piece's row; an aggregate's sums its parts' terms per index."""
    rows = {}
    for name, entry in table.items():
        if isinstance(entry[0], str):
            entry = twist_row([term for part in entry for term in rows[part]])
        rows[name] = entry
    return rows


_ROWS = {rank: _rows(table) for rank, table in _TABLE.items()}
#: The piece names of each rank, in table order, "total" last.
PIECES = {rank: tuple(rows) for rank, rows in _ROWS.items()}

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
# The rank-3 closed formula on the twist basis, m = n - 1:
# Q4_Q2_1 + C(m, 2) Q6_2Q5 - floor(m/2) QM1_2_Q2_Q_M1 + m (3 Q4_Q3 + Q_QM1_3)
_FORMULA_R3 = ((0, _F_Q4_Q2_1 + _F_Q6_2Q5 + _F_QM1_2_Q2_Q_M1 - 3 * _F_Q4_Q3 - _F_Q_QM1_3),
               (1, 3 * _F_Q4_Q3 + _F_Q_QM1_3 - _F_Q6_2Q5 - _F_QM1_2_Q2_Q_M1),
               (2, _F_Q6_2Q5), (3, _F_QM1_2_Q2_Q_M1))


def char_piece_epoly(rank: int, piece: str, n: int) -> Poly:
    """E-polynomial of one character-variety piece at twist count n."""
    row = _ROWS[check_rank(rank)].get(piece) if isinstance(piece, str) else None
    if row is None:
        raise ValueError(f"invalid piece {shown(piece)} for rank {rank}")
    return twist_sum(row, n)


def char_variety_epoly_formula(rank: int, n: int) -> Poly:
    """Closed character-variety formula, with exact integer handling of the
    half-integer and floor terms and the corrected rank-3 red_21 terms.  The
    rank-2 branch reads no twist_sum, so n is checked here."""
    check_twists(n)
    if check_rank(rank) == 2:
        return _F_Q2_1 + (n - 1) * _F_Q2_Q_1
    return twist_sum(_FORMULA_R3, n)
