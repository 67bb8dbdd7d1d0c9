"""Eigenvalue configuration strata for ranks 2 and 3.

The eigenvalue tuples of an SL_r matrix form a torus subvariety stratified by
coincidence patterns (set partitions of the r positions, taken up to
equivalence with a fixed canonical representative per shape).  Raising a
tuple to the n-th power can merge eigenvalues, so each pattern splits further
by the pattern of the powered tuple.  This module hard-codes the exact
E-polynomials of these strata, together with their S2/S3-equivariant
refinements.

Every coefficient of every stratum is an integer combination of the same four
functions of the twist count, twist_basis(n) = (1, n, n(n-1)/2, floor(n/2)).
So one table holds each stratum, once, as rows of (k, P_k) terms, P_k an
integer polynomial in q on basis function k (one row per irreducible), the
row format of every symbolic table, which twist_sum evaluates at n >= 1.
twist_sum reads n only through twist_basis, which checks it: the one twist
check of every symbolic reader but the rank-2 character formula.  Beside
it, twist_row merges (k, P) terms into one such row, one P_k per k: the one
merge that builds every aggregated row (a stratum of geom, an aggregate piece
of charvar).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from .poly import ONE, Poly, Q
from .repring import S2Elem, S3Elem

__all__ = [
    "Partition",
    "P2_BOTH_EQUAL", "P2_DISTINCT",
    "P3_ALL_EQUAL", "P3_TWO_EQUAL", "P3_DISTINCT",
    "shown", "check_rank", "check_twists",
    "twist_basis", "twist_sum", "twist_row", "config_rows", "config_epoly",
    "config_equivariant_s2", "config_equivariant_s3",
    "refinement_pairs", "admissibility_modulus", "is_admissible",
]


#: Longest repr of its input that a refusal echoes.
_ECHO = 40


def shown(value: object) -> str:
    """How a refusal names its input: its repr, or its size past _ECHO characters,
    so that no refusal grows with its input.  An int is sized by its digits
    without str(), which refuses one past the interpreter's digit limit."""
    if isinstance(value, int):
        digits = Decimal(value).adjusted() + 1
        if digits + (value < 0) > _ECHO:
            return f"<{'negative ' if value < 0 else ''}integer of {digits} digits>"
    text = repr(value)
    size = len(value) if isinstance(value, str) else len(text)
    return text if len(text) <= _ECHO else f"<{type(value).__name__} of {size} characters>"


def check_rank(rank: int) -> int:
    """The rank, if it is one this package covers (the int 2 or 3)."""
    if not isinstance(rank, int) or rank not in (2, 3):
        raise ValueError(f"rank must be 2 or 3, got {shown(rank)}")
    return rank


def check_twists(n: int) -> int:
    """The twist count, if it is an int >= 1 (a bool is refused)."""
    if type(n) is not int or n < 1:
        raise ValueError(f"twist count must be an integer >= 1, got {shown(n)}")
    return n


@dataclass(frozen=True)
class Partition:
    """Canonical coincidence pattern of an eigenvalue tuple.

    rank 2: index 1 = both equal, 2 = distinct.
    rank 3: index 1 = all equal, 2 = exactly the first two equal,
            3 = all distinct.
    """

    rank: int
    index: int

    def __post_init__(self):
        top = check_rank(self.rank)
        if type(self.index) is not int or not 1 <= self.index <= top:
            raise ValueError(f"invalid partition index {shown(self.index)} for rank {self.rank}")

    def __str__(self) -> str:
        return f"sigma{self.index}(rank {self.rank})"


P2_BOTH_EQUAL = Partition(2, 1)
P2_DISTINCT = Partition(2, 2)
P3_ALL_EQUAL = Partition(3, 1)
P3_TWO_EQUAL = Partition(3, 2)
P3_DISTINCT = Partition(3, 3)


def refinement_pairs(rank: int) -> list[tuple[Partition, Partition]]:
    """All (src, tgt) pairs with src refining tgt (every src block sits inside
    a tgt block), identities included.  The canonical patterns of one rank
    form a chain under refinement, index 1 (one block) the coarsest, so src
    refines tgt iff src.index >= tgt.index."""
    parts = [Partition(rank, i) for i in range(1, check_rank(rank) + 1)]
    return [(s, t) for s in parts for t in parts if s.index >= t.index]


# Every configuration stratum, at twist count n, on the basis of functions of
# n given by twist_basis: (group, src, tgt) -> one row per irreducible of the
# group (T; T, N; or T, S, D), each row the (k, P_k) terms read by twist_sum,
# zero terms left out.  tgt None is the whole stratum of pattern src, with no
# power condition; group None is the plain E-polynomial.
_CONFIG = {
    (None, P2_BOTH_EQUAL, None): (((0, 2 * ONE),),),              # square roots of unity
    (None, P2_DISTINCT, None): (((0, Q - 3),),),                  # punctured torus minus mu_2
    (None, P3_ALL_EQUAL, None): (((0, 3 * ONE),),),               # cube roots of unity
    (None, P3_TWO_EQUAL, None): (((0, Q - 4),),),                 # C^* minus mu_3
    (None, P3_DISTINCT, None): (((0, Q * Q - 5 * Q + 10),),),     # 2-torus minus 3 crossing curves
    (None, P2_BOTH_EQUAL, P2_BOTH_EQUAL): (((0, 2 * ONE),),),
    (None, P2_DISTINCT, P2_BOTH_EQUAL): (((0, -2 * ONE), (1, 2 * ONE)),),   # 2n - 2
    (None, P2_DISTINCT, P2_DISTINCT): (((0, Q - 1), (1, -2 * ONE)),),       # q - (2n + 1)
    (None, P3_ALL_EQUAL, P3_ALL_EQUAL): (((0, 3 * ONE),),),
    (None, P3_TWO_EQUAL, P3_ALL_EQUAL): (((0, -3 * ONE), (1, 3 * ONE)),),   # 3n - 3
    # 3n^2 - 9n + 6
    (None, P3_DISTINCT, P3_ALL_EQUAL): (((0, 6 * ONE), (1, -6 * ONE), (2, 6 * ONE)),),
    (None, P3_TWO_EQUAL, P3_TWO_EQUAL): (((0, Q - 1), (1, -3 * ONE)),),     # q - (3n + 1)
    # (n - 1)(q - (3n + 1))
    (None, P3_DISTINCT, P3_TWO_EQUAL): (((0, 1 - Q), (1, Q - 1), (2, -6 * ONE)),),
    # q^2 - (3n + 2) q + 6n^2 + 3n + 1
    (None, P3_DISTINCT, P3_DISTINCT): (((0, Q * Q - 2 * Q + 1), (1, 9 - 3 * Q), (2, 12 * ONE)),),
    ("s2", P2_DISTINCT, None): (((0, Q - 2),), ((0, -ONE),)),                  # (q - 2) T - N
    # (n - 1)(T + N)
    ("s2", P2_DISTINCT, P2_BOTH_EQUAL): (((0, -ONE), (1, ONE)), ((0, -ONE), (1, ONE))),
    # (q - n - 1) T - n N
    ("s2", P2_DISTINCT, P2_DISTINCT): (((0, Q - 1), (1, -ONE)), ((1, -ONE),)),
    # (floor(n/2) (q - 1) - 3n(n-1)/2) T + (floor((n-1)/2) (q - 1) - 3n(n-1)/2) N
    ("s2", P3_DISTINCT, P3_TWO_EQUAL): (((2, -3 * ONE), (3, Q - 1)),
                                       ((0, 1 - Q), (1, Q - 1), (2, -3 * ONE), (3, 1 - Q))),
    # (q^2 - q + 1) T + S + (4 - 2q) D
    ("s3", P3_DISTINCT, None): (((0, Q * Q - Q + 1),), ((0, ONE),), ((0, 4 - 2 * Q),)),
    # m/2 T + m/2 S + m D with m = (n - 1)(n - 2)
    ("s3", P3_DISTINCT, P3_ALL_EQUAL): (((0, ONE), (1, -ONE), (2, ONE)),
                                        ((0, ONE), (1, -ONE), (2, ONE)),
                                        ((0, 2 * ONE), (1, -2 * ONE), (2, 2 * ONE))),
    # (q^2 - q - a (q - 1) + n^2) T + (n^2 - b (q - 1)) S + (2n^2 - (n + 1)(q - 1)) D,
    # with a = floor(n/2) and b = floor((n-1)/2) = n - 1 - a
    ("s3", P3_DISTINCT, P3_DISTINCT): (((0, Q * Q - Q), (1, ONE), (2, 2 * ONE), (3, 1 - Q)),
                                       ((0, Q - 1), (1, 2 - Q), (2, 2 * ONE), (3, Q - 1)),
                                       ((0, 1 - Q), (1, 3 - Q), (2, 4 * ONE))),
}


def twist_basis(n: int) -> tuple[int, int, int, int]:
    """The functions of n every symbolic table is an integer (Poly) combination
    of: (1, n, n(n-1)/2, floor(n/2)).  Read only through twist_sum, so the
    twist count of every symbolic reader is checked here, once."""
    check_twists(n)
    return 1, n, n * (n - 1) // 2, n // 2


def twist_sum(row: tuple[tuple[int, Poly], ...], n: int) -> Poly:
    """sum twist_basis(n)[k] * P_k over the (k, P_k) terms of row, in one pass."""
    basis = twist_basis(n)
    return Poly.combine([(basis[k], p) for k, p in row])


def twist_row(terms: list[tuple[int, Poly]]) -> tuple[tuple[int, Poly], ...]:
    """The row, ascending in k, whose P_k sums the P of every (k, P) in terms,
    so twist_sum of it is twist_sum of terms; builds each aggregated row."""
    return tuple((k, Poly.combine([(1, p) for m, p in terms if m == k]))
                 for k in sorted(dict(terms)))


def config_rows(group: str | None, src: Partition, tgt: Partition | None) -> tuple:
    """The configuration stratum (group, src, tgt) on the twist basis: one
    row of (k, P_k) terms, read by twist_sum, per irreducible of the group."""
    try:
        rows = _CONFIG.get((group, src, tgt))
    except TypeError:  # an unhashable input, which no key equals
        rows = None
    if rows is None:
        raise ValueError(f"no {group or 'plain'} configuration data for "
                         f"({shown(src)}, {shown(tgt)})")
    return rows


def config_epoly(src: Partition, tgt: Partition | None, n: int) -> Poly:
    """E-polynomial of the stratum: tuples of pattern src whose n-th powers
    have pattern tgt, which src must refine.  tgt=None means the whole
    stratum of pattern src (no power condition), the same at every n."""
    return twist_sum(config_rows(None, src, tgt)[0], n)


def config_equivariant_s2(src: Partition, tgt: Partition | None, n: int) -> S2Elem:
    """S2-equivariant E-polynomial of a stratum carrying a transposition
    action.  tgt=None means the whole stratum of pattern src (no power
    condition); supported cases are the rank-2 distinct-pair strata and the
    rank-3 distinct triple degenerating to a coincident pair."""
    return S2Elem(*(twist_sum(row, n) for row in config_rows("s2", src, tgt)))


def config_equivariant_s3(tgt: Partition | None, n: int) -> S3Elem:
    """S3-equivariant E-polynomial of the rank-3 distinct-triple stratum,
    split by the power pattern tgt (all-equal or still-distinct); tgt=None is
    the whole distinct-triple stratum."""
    return S3Elem(*(twist_sum(row, n) for row in config_rows("s3", P3_DISTINCT, tgt)))


# -- admissible fields -------------------------------------------------------

def admissibility_modulus(rank: int, n: int) -> int:
    """rank*n.  When it divides q-1, F_q holds every root of unity the strata
    refer to, so an F_q point count equals its E-polynomial evaluated at q."""
    check_twists(n)
    return check_rank(rank) * n


def is_admissible(rank: int, n: int, q: int) -> bool:
    """Whether rank * n divides q - 1, where the F_q count equals the closed
    formula at q.  Integers only (a q that is not an int, or is a bool, is
    refused): is_admissible(2, 1, 9) is True, and the count, not this
    predicate, checks that q is an odd prime."""
    if type(q) is not int:
        raise ValueError(f"q must be an int, got {shown(q)}")
    return (q - 1) % admissibility_modulus(rank, n) == 0
