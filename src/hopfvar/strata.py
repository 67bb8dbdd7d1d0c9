"""Eigenvalue configuration strata for ranks 2 and 3.

The eigenvalue tuples of an SL_r matrix form a torus subvariety stratified by
coincidence patterns (set partitions of the r positions, taken up to
equivalence with a fixed canonical representative per shape).  Raising a
tuple to the n-th power can merge eigenvalues, so each pattern splits further
by the pattern of the powered tuple.  This module hard-codes the exact
E-polynomials of these strata as functions of the twist count n, together
with their S2/S3-equivariant refinements, and provides a brute-force
finite-field point count that independently re-derives every formula.

All formulas return concrete polynomials in q for a fixed integer n >= 1;
nothing here is symbolic in n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .poly import ONE, Poly, Q
from .repring import S2Elem, S3Elem

__all__ = [
    "Partition",
    "P2_BOTH_EQUAL", "P2_DISTINCT",
    "P3_ALL_EQUAL", "P3_TWO_EQUAL", "P3_DISTINCT",
    "refines", "check_twists",
    "config_epoly", "config_epoly_plain",
    "config_equivariant_s2", "config_equivariant_s3",
    "count_config_points", "refinement_pairs",
    "admissibility_modulus", "is_admissible",
]


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
        if self.rank not in (2, 3):
            raise ValueError(f"rank must be 2 or 3, got {self.rank}")
        if not 1 <= self.index <= self.rank:
            raise ValueError(f"invalid partition index {self.index} for rank {self.rank}")

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Canonical representative as blocks of 0-based positions."""
        return _BLOCKS[(self.rank, self.index)]

    def __str__(self) -> str:
        return f"sigma{self.index}(rank {self.rank})"


_BLOCKS = {
    (2, 1): ((0, 1),),
    (2, 2): ((0,), (1,)),
    (3, 1): ((0, 1, 2),),
    (3, 2): ((0, 1), (2,)),
    (3, 3): ((0,), (1,), (2,)),
}

P2_BOTH_EQUAL = Partition(2, 1)
P2_DISTINCT = Partition(2, 2)
P3_ALL_EQUAL = Partition(3, 1)
P3_TWO_EQUAL = Partition(3, 2)
P3_DISTINCT = Partition(3, 3)


def check_twists(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"twist count must be an integer >= 1, got {n!r}")
    return n


def refines(src: Partition, tgt: Partition) -> bool:
    """True when src subdivides tgt: every src block sits inside a tgt block.

    The canonical patterns of one rank form a chain under refinement, index 1
    (one block) the coarsest, so src refines tgt iff src.index >= tgt.index.
    Raises on rank mismatch.
    """
    if src.rank != tgt.rank:
        raise ValueError(f"rank mismatch: {src.rank} vs {tgt.rank}")
    return src.index >= tgt.index


def refinement_pairs(rank: int) -> list[tuple[Partition, Partition]]:
    """All (src, tgt) pairs with src refining tgt, identities included."""
    parts = [Partition(rank, i) for i in range(1, rank + 1)]
    return [(s, t) for s in parts for t in parts if refines(s, t)]


def _require_refines(src: Partition, tgt: Partition) -> None:
    if not refines(src, tgt):
        raise ValueError(f"{src} does not refine {tgt}")


def _half(k: int) -> int:
    d, r = divmod(k, 2)
    if r:
        raise ValueError(f"{k} is not even")
    return d


def config_epoly_plain(sigma: Partition) -> Poly:
    """E-polynomial of the whole configuration stratum, no power condition."""
    table = {
        (2, 1): Poly.const(2),            # square roots of unity
        (2, 2): Q - 3,                    # punctured torus minus mu_2
        (3, 1): Poly.const(3),            # cube roots of unity
        (3, 2): Q - 4,                    # C^* minus mu_3
        (3, 3): Q * Q - 5 * Q + 10,       # 2-torus minus three crossing curves
    }
    return table[(sigma.rank, sigma.index)]


def config_epoly(src: Partition, tgt: Partition, n: int) -> Poly:
    """E-polynomial of the stratum: tuples of pattern src whose n-th powers
    have pattern tgt.  Requires src to refine tgt."""
    check_twists(n)
    _require_refines(src, tgt)
    key = (src.rank, src.index, tgt.index)
    if key == (2, 1, 1):
        return Poly.const(2)
    if key == (2, 2, 1):
        return Poly.const(2 * n - 2)
    if key == (2, 2, 2):
        return Q - (2 * n + 1)
    if key == (3, 1, 1):
        return Poly.const(3)
    if key == (3, 2, 1):
        return Poly.const(3 * n - 3)
    if key == (3, 3, 1):
        return Poly.const(3 * n * n - 9 * n + 6)
    if key == (3, 2, 2):
        return Q - (3 * n + 1)
    if key == (3, 3, 2):
        return (n - 1) * (Q - (3 * n + 1))
    if key == (3, 3, 3):
        # q^2 - (3n + 2) q + (6n^2 + 3n + 1)
        return Poly([6 * n * n + 3 * n + 1, -(3 * n + 2), 1])
    raise AssertionError(f"unhandled refinement pair {key}")


def config_equivariant_s2(src: Partition, tgt: Partition | None, n: int) -> S2Elem:
    """S2-equivariant E-polynomial of a stratum carrying a transposition
    action.  tgt=None means the whole stratum of pattern src (no power
    condition); supported cases are the rank-2 distinct-pair strata and the
    rank-3 distinct triple degenerating to a coincident pair."""
    check_twists(n)
    if src == P2_DISTINCT and tgt is None:
        return S2Elem(Q - 2, Poly.const(-1))
    if src == P2_DISTINCT and tgt == P2_BOTH_EQUAL:
        return S2Elem(Poly.const(n - 1), Poly.const(n - 1))
    if src == P2_DISTINCT and tgt == P2_DISTINCT:
        return S2Elem(Q - (n + 1), Poly.const(-n))
    if src == P3_DISTINCT and tgt == P3_TWO_EQUAL:
        swap = 3 * n * (n - 1) // 2  # n(n-1) is even
        return S2Elem(
            (n // 2) * (Q - 1) - swap,
            ((n - 1) // 2) * (Q - 1) - swap,
        )
    raise ValueError(f"no S2 action data for ({src}, {tgt})")


def config_equivariant_s3(tgt: Partition | None, n: int) -> S3Elem:
    """S3-equivariant E-polynomial of the rank-3 distinct-triple stratum,
    split by the power pattern tgt (all-equal or still-distinct); tgt=None is
    the whole distinct-triple stratum."""
    check_twists(n)
    if tgt is None:
        return S3Elem(Q * Q - Q + 1, ONE, -2 * Q + 4)
    if tgt == P3_ALL_EQUAL:
        m = (n - 1) * (n - 2)  # always even
        return S3Elem(Poly.const(_half(m)), Poly.const(_half(m)), Poly.const(m))
    if tgt == P3_DISTINCT:
        # q^2 - q - a (q - 1) + n^2, n^2 - b (q - 1) and 2n^2 - (n + 1) (q - 1),
        # with a = floor(n/2) and b = floor((n-1)/2)
        nn, a, b = n * n, n // 2, (n - 1) // 2
        return S3Elem(
            Poly([nn + a, -1 - a, 1]),
            Poly([nn + b, -b]),
            Poly([2 * nn + n + 1, -(n + 1)]),
        )
    raise ValueError(f"no S3 action data for target {tgt}")


# -- finite-field oracle ------------------------------------------------------

def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def admissibility_modulus(rank: int, n: int) -> int:
    """rank*n.  When it divides q-1, F_q holds every root of unity the strata
    refer to, so an F_q point count equals its E-polynomial evaluated at q."""
    check_twists(n)
    if rank not in (2, 3):
        raise ValueError(f"rank must be 2 or 3, got {rank}")
    return rank * n


def is_admissible(rank: int, n: int, q: int) -> bool:
    return (q - 1) % admissibility_modulus(rank, n) == 0


def _coincidence_pattern(values: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    groups: dict[int, list[int]] = {}
    for pos, v in enumerate(values):
        groups.setdefault(v, []).append(pos)
    return tuple(sorted(tuple(g) for g in groups.values()))


def count_config_points(src: Partition, tgt: Partition, n: int, q: int) -> int:
    """Exact number of F_q points of the stratum, by enumeration.

    Enumerates all tuples in the norm-one torus (F_q*)^r / (product = 1) and
    keeps those whose coincidence pattern is exactly the canonical src and
    whose n-th-power pattern is exactly the canonical tgt.  Requires q prime
    with rank*n dividing q-1 so F_q contains every root of unity the stratum
    formulas refer to.
    """
    check_twists(n)
    _require_refines(src, tgt)
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    r = src.rank
    if not is_admissible(r, n, q):
        raise ValueError(f"need {admissibility_modulus(r, n)} | q-1 for F_{q} "
                         "to contain the relevant roots of unity")

    src_pattern = tuple(sorted(src.blocks))
    tgt_pattern = tuple(sorted(tgt.blocks))
    units = range(1, q)
    inverse = [0] + [pow(x, q - 2, q) for x in units]
    power = [0] + [pow(x, n, q) for x in units]

    count = 0
    for free in itertools.product(units, repeat=r - 1):
        tup = (*free, inverse[math.prod(free) % q])
        if _coincidence_pattern(tup) != src_pattern:
            continue
        if _coincidence_pattern(tuple(power[x] for x in tup)) != tgt_pattern:
            continue
        count += 1
    return count


def smallest_admissible_prime(rank: int, n: int, limit: int = 1000) -> int:
    """Smallest admissible prime: q with rank*n | q-1."""
    step = admissibility_modulus(rank, n)
    q = step + 1
    while q <= limit:
        if q > 2 and is_prime(q):
            return q
        q += step
    raise ValueError(f"no admissible prime below {limit} for rank={rank}, n={n}")
