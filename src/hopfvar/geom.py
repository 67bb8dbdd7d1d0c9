"""Jordan-type strata of the representation variety and their assembly.

A pair (A, B) in SL_r x SL_r with A^n commuting with B is classified by the
Jordan structure of A together with how taking n-th powers degenerates its
eigenvalue pattern.  Each admissible stratum is a product of three factors
(the eigenvalue configuration stratum, the conjugation orbit PGL_r/Stab, and
the commuting-matrix group Stab~), possibly divided by a residual symmetric
group permuting equal-looking Jordan blocks.  Summing the stratum
E-polynomials yields the E-polynomial of the whole representation variety,
which must agree with the closed formula transcribed in
``rep_variety_epoly_formula``.

Per rank, ``_TYPES`` holds one row per Jordan type (eigenvalue pattern,
orbit, stabilizer) and ``_STRATA`` one row per admissible stratum.  Each
stratum is built once, at import, on the twist basis of ``strata``
(1, n, n(n-1)/2, floor(n/2)), one fixed polynomial per basis function, read
at n by ``strata.twist_sum`` with no ring product: one stratum, every stratum
term of the rank (the strata route), or the closed formula's row.  The twist
count is checked where the basis is read, in ``strata.twist_basis``.  These
constants are pinned by the test suite (dimension checks, fibration
identity, closed formulas for all n, F_q counts), not re-derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .poly import ONE, Poly, Q, general_linear_epoly, special_linear_epoly
from .repring import S2Elem, S3Elem
from .strata import (
    P2_BOTH_EQUAL, P2_DISTINCT, P3_ALL_EQUAL, P3_DISTINCT, P3_TWO_EQUAL,
    Partition, check_rank, config_rows, shown, twist_row, twist_sum,
)
# unused here, but perfbench traces them as geom attributes (strata.config_self_s)
from .strata import config_epoly, config_equivariant_s2, config_equivariant_s3  # noqa: F401

__all__ = [
    "JordanType", "Stratum",
    "J2_SCALAR", "J2_BLOCK", "J2_DISTINCT",
    "J3_SCALAR", "J3_EQUAL_B21", "J3_EQUAL_B3",
    "J3_PAIR_DIAG", "J3_PAIR_B2", "J3_DISTINCT",
    "admissible_strata",
    "stabilizer_epoly", "pgl_mod_stab_epoly",
    "stratum_epoly", "rep_variety_epoly_strata", "rep_variety_epoly_formula",
]


class _TypeRow(NamedTuple):
    partition: Partition  # eigenvalue coincidence pattern
    orbit: Poly           # conjugation orbit PGL_r / Stab
    stabilizer: Poly      # SL_r matrices commuting with a matrix of the type


# Jordan types by rank, index i in row i-1; comments name the stabilizer.
_TYPES = {
    2: (_TypeRow(P2_BOTH_EQUAL, ONE, special_linear_epoly(2)),               # SL_2
        _TypeRow(P2_BOTH_EQUAL, Q ** 2 - 1, 2 * Q),                          # C x mu_2
        _TypeRow(P2_DISTINCT, Q ** 2 + Q, Q - 1)),                           # C^*
    3: (_TypeRow(P3_ALL_EQUAL, ONE, special_linear_epoly(3)),                # SL_3
        _TypeRow(P3_ALL_EQUAL, (Q ** 3 - 1) * (Q + 1), (Q - 1) * Q ** 3),    # C^* x C^3
        _TypeRow(P3_ALL_EQUAL, (Q ** 3 - 1) * (Q ** 2 - 1) * Q, 3 * Q ** 2), # mu_3 x C^2
        _TypeRow(P3_TWO_EQUAL, (Q ** 2 + Q + 1) * Q ** 2, general_linear_epoly(2)),
        _TypeRow(P3_TWO_EQUAL, (Q ** 3 - 1) * (Q ** 3 + Q ** 2), Q * (Q - 1)),  # C^* x C
        _TypeRow(P3_DISTINCT, (Q ** 2 + Q + 1) * (Q + 1) * Q ** 3, (Q - 1) ** 2)),  # torus
}


@dataclass(frozen=True)
class JordanType:
    """One of the finitely many Jordan structures of an SL_r matrix.

    rank 2: 1 = scalar, 2 = single 2-block, 3 = distinct diagonal.
    rank 3: 1 = scalar, 2 = 2-block + 1 (equal eigenvalues), 3 = full
            3-block, 4 = diagonalizable with a repeated eigenvalue,
            5 = 2-block on the repeated eigenvalue, 6 = distinct diagonal.
    """

    rank: int
    index: int

    def __post_init__(self):
        top = len(_TYPES[check_rank(self.rank)])
        if type(self.index) is not int or not 1 <= self.index <= top:
            raise ValueError(f"invalid Jordan type index {shown(self.index)} for rank {self.rank}")

    @property
    def partition(self) -> Partition:
        """Eigenvalue coincidence pattern of this Jordan structure."""
        return _TYPES[self.rank][self.index - 1].partition

    def __str__(self) -> str:
        return f"xi{self.index}(rank {self.rank})"


J2_SCALAR = JordanType(2, 1)
J2_BLOCK = JordanType(2, 2)
J2_DISTINCT = JordanType(2, 3)

J3_SCALAR = JordanType(3, 1)
J3_EQUAL_B21 = JordanType(3, 2)
J3_EQUAL_B3 = JordanType(3, 3)
J3_PAIR_DIAG = JordanType(3, 4)
J3_PAIR_B2 = JordanType(3, 5)
J3_DISTINCT = JordanType(3, 6)


# Admissible strata by rank, in assembly order: (src index, tgt index,
# residual block-permutation group).  Power maps preserve block structure, so
# every other pair is empty and rejected at construction.
_STRATA = {
    2: ((1, 1, None), (2, 2, None), (3, 3, "s2"), (3, 1, "s2")),
    3: ((1, 1, None), (2, 2, None), (3, 3, None), (4, 4, None), (5, 5, None),
        (6, 6, "s3"), (4, 1, None), (5, 2, None), (6, 1, "s3"), (6, 4, "s2")),
}


@dataclass(frozen=True)
class Stratum:
    """Admissible degeneration stratum src -> tgt of Jordan types."""

    src: JordanType
    tgt: JordanType

    def __post_init__(self):
        # _ROWS holds the admissible pairs of each rank, so it refuses mixed ranks
        try:
            admissible = (self.src, self.tgt) in _ROWS
        except TypeError:  # an unhashable endpoint, which no key equals
            admissible = False
        if not admissible:
            raise ValueError(f"inadmissible stratum {shown(self.src)} -> {shown(self.tgt)}")

    @property
    def rank(self) -> int:
        return self.src.rank

    def __str__(self) -> str:
        return f"xi{self.src.index}->xi{self.tgt.index}(rank {self.rank})"


def admissible_strata(rank: int) -> list[Stratum]:
    """The admissible strata of the rank, in assembly order."""
    check_rank(rank)
    return [Stratum(src, tgt) for src, tgt in _ROWS if src.rank == rank]


def _type_row(xi: JordanType) -> _TypeRow:
    if not isinstance(xi, JordanType):
        raise ValueError(f"not a JordanType: {shown(xi)}")
    return _TYPES[xi.rank][xi.index - 1]


def stabilizer_epoly(xi: JordanType) -> Poly:
    """E-polynomial of the group of SL_r matrices commuting with a matrix of
    this Jordan type."""
    return _type_row(xi).stabilizer


def pgl_mod_stab_epoly(xi: JordanType) -> Poly:
    """E-polynomial of the conjugation orbit PGL_r / Stab of this type."""
    return _type_row(xi).orbit


# -- equivariant data ----------------------------------------------------------

# (Jordan type, group) -> (orbit piece, stabilizer piece) under the
# block-permutation action, each None where no stratum of _STRATA reads it.
# _stratum_row, its one reader, indexes it directly: a source reads its orbit
# (slot 0) and a target its stabilizer (slot 1).  Connected
# stabilizers are acted on by inner automorphisms, so their class is
# trivial-action, e * T; the norm-one diagonal torus carries genuine S2/S3
# classes.
_EQUIVARIANT = {
    (J2_DISTINCT, "s2"): (S2Elem(Q ** 2, Q), S2Elem(Q, -1)),
    (J3_DISTINCT, "s3"): (S3Elem(Q ** 6, Q ** 3, Q ** 5 + Q ** 4), S3Elem(Q ** 2, 1, -Q)),
    (J3_DISTINCT, "s2"): (S2Elem(Q ** 6 + Q ** 5 + Q ** 4, Q ** 5 + Q ** 4 + Q ** 3), None),
    # targets with a connected stabilizer: its plain class, trivial action
    (J3_PAIR_DIAG, "s2"): (None, S2Elem(stabilizer_epoly(J3_PAIR_DIAG))),
    (J2_SCALAR, "s2"): (None, S2Elem(stabilizer_epoly(J2_SCALAR))),
    (J3_SCALAR, "s3"): (None, S3Elem(stabilizer_epoly(J3_SCALAR))),
}


# -- stratum assembly ----------------------------------------------------------

def _stratum_row(rank: int, i: int, j: int, group: str | None):
    # stratum i -> j on the twist basis: each irreducible's configuration
    # terms (k, P_k) times its n-independent factor (orbit of the source times
    # stabilizer of the target; a residual group keeps the T-component, with
    # self-dual irreducibles the sum of the products of matching
    # coefficients), merged per k by twist_row.
    src, tgt = JordanType(rank, i), JordanType(rank, j)
    config = config_rows(group, src.partition, tgt.partition)
    if group is None:
        factor = (pgl_mod_stab_epoly(src) * stabilizer_epoly(tgt),)
    else:
        factor = (_EQUIVARIANT[src, group][0] * _EQUIVARIANT[tgt, group][1]).coeffs
    return (src, tgt), twist_row([(k, p * f) for row, f in zip(config, factor) for k, p in row])


# (src, tgt) -> ((k, P_k), ...): the stratum is sum_k twist_basis(n)[k] * P_k,
# the admissible pairs of each rank in assembly order
_ROWS = dict(_stratum_row(rank, *row) for rank, rows in _STRATA.items() for row in rows)

# every stratum term of each rank, in assembly order
_RANK_ROWS = {rank: tuple(term for s in admissible_strata(rank) for term in _ROWS[s.src, s.tgt])
              for rank in _STRATA}


def stratum_epoly(stratum: Stratum, n: int) -> Poly:
    """E-polynomial of one admissible stratum at twist count n: its fixed
    polynomials summed against the twist basis at n."""
    if not isinstance(stratum, Stratum):
        raise ValueError(f"not a Stratum: {shown(stratum)}")
    return twist_sum(_ROWS[stratum.src, stratum.tgt], n)


def rep_variety_epoly_strata(rank: int, n: int) -> Poly:
    """E-polynomial of the representation variety as the sum over all
    admissible strata (the stratification route): one pass over every
    stratum term of the rank."""
    return twist_sum(_RANK_ROWS[check_rank(rank)], n)


# Closed-formula route: one row per rank on the twist basis of strata,
# (1, n, C(n, 2), floor(n/2)), each cofactor folded with the outer factor at
# import and ascending in q.  Rank 3 is the outer factor times
# floor(n/2) FLOOR + (n^2 N2 - n N1) / 2 + N0; by n^2 = 2 C(n, 2) + n the
# C(n, 2) cofactor is N2 and the n cofactor the even N2 - N1, halved here.
_R3_OUTER = (Q ** 3 - 1) * (Q ** 2 - 1) * Q ** 2
_R3_N2 = _R3_OUTER * Poly([0, 2, -3, -3, 1, 2, 2, 1])      # C(n, 2) cofactor
_R3_N = _R3_OUTER * Poly([0, -5, -1, 7, 2, 1, -2, -1])     # n cofactor, (N2 - N1) / 2
_R3_N0 = _R3_OUTER * Poly([0, 13, 2, -6, -2, -1, 2, 1])    # constant-in-n cofactor
_R3_FLOOR = _R3_OUTER * (Q ** 2 - Q) * (Q ** 2 - Q - 1)     # floor(n/2) cofactor
# rank 2: ((n - 1) q^2 + n q + (5 - n)) (q^3 - q), on 1 and n
_R2_N0, _R2_N = (5 - Q ** 2) * (Q ** 3 - Q), (Q ** 2 + Q - 1) * (Q ** 3 - Q)
_FORMULA = {2: ((0, _R2_N0), (1, _R2_N)),
            3: ((0, _R3_N0), (1, _R3_N), (2, _R3_N2), (3, _R3_FLOOR))}


def rep_variety_epoly_formula(rank: int, n: int) -> Poly:
    """E-polynomial of the representation variety by the closed formula."""
    return twist_sum(_FORMULA[check_rank(rank)], n)
