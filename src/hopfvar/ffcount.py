"""Finite-field counting oracle for the representation variety.

Counts pairs (A, B) of SL_r matrices over a prime field F_q with A^n
commuting with B.  The commutant size of A^n depends only on the conjugacy
class of A, so the count is a sum over the GL_r(F_q)-classes C inside
SL_r(F_q) (the class equation):

    count = sum over C of |GL_r(F_q)| / |C_GL(A_C)| * #{B in SL_r(F_q) : B A_C^n = A_C^n B}.

For r <= 3 a class is fixed by its rational canonical form, so the
representatives A_C are

* the companion matrix of each det-1 characteristic polynomial
  (x^2 - t x + 1, resp. x^3 - t x^2 + s x - 1): q resp. q^2 classes;
* at rank 3, diag(a) + companion((x - a)(x - a^-2)) for each a in F_q^*,
  the classes whose minimal polynomial has degree 2;
* the scalars a*I with a^r = 1, each a class of size 1.

The orders of the centralizers C_GL(A_C) and C_SL(A_C^n) are closed forms in
q, read from the factor pattern of the characteristic polynomial (its roots
in F_q with multiplicity) and from whether the matrix is cyclic (see
_centralizer_orders).  A non-scalar matrix M is cyclic iff its minimal
polynomial has degree r, which is read off M and M^2 without row reduction
(_is_cyclic); the commutant of a cyclic M is then F_q[M], with basis
I, M, ..., M^(r-1).  Only scalar and non-cyclic matrices have their
commutant computed by Gaussian elimination.  Nothing is enumerated: about
q^2 classes replace the q^(r^2) matrices of a direct enumeration.

The count equals the closed-formula E-polynomial at q when rank*n | q-1
(is_admissible).  The sweep is serial: the threads argument is accepted and
has no effect on the result.  max_cells still bounds q^(r^2), the number of
r x r matrices over F_q, and is checked before the primality of q.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd, prod
from typing import Iterable, Iterator, Optional

from .poly import special_linear_epoly
from .strata import admissibility_modulus, check_twists, is_admissible, is_prime

__all__ = [
    "FqMatrix", "ResourceLimitError",
    "sl_order", "is_admissible", "admissibility_modulus", "check_cells",
    "commutant_dimension", "commutant_basis",
    "count_commuting_det1", "class_representatives", "class_size",
    "count_rep_variety_points",
]

DEFAULT_MAX_CELLS = 10 ** 10


class ResourceLimitError(RuntimeError):
    """q^(r^2) would exceed the configured cell ceiling."""


def _check_field(q: int) -> None:
    if q % 2 == 0 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")


@dataclass(frozen=True)
class FqMatrix:
    """Immutable r x r matrix over the prime field F_q (entries reduced)."""

    q: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, q: int, rows: Iterable[Iterable[int]]):
        _check_field(q)
        rs = tuple(tuple(x % q for x in row) for row in rows)
        r = len(rs)
        if r not in (2, 3) or any(len(row) != r for row in rs):
            raise ValueError("matrix must be square of rank 2 or 3")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "rows", rs)

    @classmethod
    def _over(cls, q: int, rows: Iterable[Iterable[int]]) -> FqMatrix:
        """Square matrix over a field that _check_field has already accepted:
        entries are reduced, the primality test is skipped."""
        m = object.__new__(cls)
        object.__setattr__(m, "q", q)
        object.__setattr__(m, "rows", tuple(tuple(x % q for x in row) for row in rows))
        return m

    @staticmethod
    def identity(rank: int, q: int) -> FqMatrix:
        return FqMatrix(q, [[1 if i == j else 0 for j in range(rank)] for i in range(rank)])

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __mul__(self, other: FqMatrix) -> FqMatrix:
        if self.q != other.q or self.rank != other.rank:
            raise ValueError("incompatible matrices")
        q, r = self.q, self.rank
        a, b = self.rows, other.rows
        return FqMatrix._over(q, [[sum(a[i][k] * b[k][j] for k in range(r))
                                   for j in range(r)] for i in range(r)])

    def pow(self, n: int) -> FqMatrix:
        """n-th power by binary exponentiation, n >= 1."""
        if n < 1:
            raise ValueError("exponent must be >= 1")
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.rank)) % self.q

    def det(self) -> int:
        q, m = self.q, self.rows
        if self.rank == 2:
            return (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % q
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])) % q

    def is_scalar(self) -> bool:
        m, r = self.rows, self.rank
        return all(m[i][j] == (m[0][0] if i == j else 0)
                   for i in range(r) for j in range(r))

    def char_poly(self) -> tuple[int, ...]:
        """Monic characteristic polynomial, ascending coefficients."""
        q, m = self.q, self.rows
        t = self.trace()
        if self.rank == 2:
            return ((self.det()) % q, (-t) % q, 1)
        c2 = (m[0][0] * m[1][1] - m[0][1] * m[1][0]
              + m[0][0] * m[2][2] - m[0][2] * m[2][0]
              + m[1][1] * m[2][2] - m[1][2] * m[2][1]) % q
        return ((-self.det()) % q, c2, (-t) % q, 1)


# -- commutant linear algebra ---------------------------------------------------

def _kernel_basis_mod(rows: list[list[int]], q: int) -> list[list[int]]:
    """Basis of the null space of a matrix over F_q (Gaussian elimination)."""
    if not rows:
        return []
    m = len(rows[0])
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(m):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] % q), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], q - 2, q)
        mat[rank] = [(x * inv) % q for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % q for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * m
        v[fc] = 1
        for prow, pcol in enumerate(pivots):
            v[pcol] = (-mat[prow][fc]) % q
        basis.append(v)
    return basis


def _commutator_operator(M: FqMatrix) -> list[list[int]]:
    # rows of the map X -> XM - MX on r^2 coordinates (row-major X)
    q, r, m = M.q, M.rank, M.rows
    rows = []
    for i in range(r):
        for j in range(r):
            row = [0] * (r * r)
            for a in range(r):
                for b in range(r):
                    c = 0
                    if a == i:
                        c += m[b][j]
                    if b == j:
                        c -= m[i][a]
                    row[a * r + b] = c % q
            rows.append(row)
    return rows


def _is_cyclic(M: FqMatrix) -> bool:
    """Whether a non-scalar M is cyclic, i.e. its minimal polynomial has
    degree r.  At rank 2 every non-scalar M is.  At rank 3 M is not iff
    M^2 = alpha M + beta I: alpha is read off an entry M[i][j] != 0 with
    i != j, where I vanishes, and M^2 - alpha M must then be scalar.  A
    diagonal M is cyclic iff its three entries are distinct."""
    if M.rank == 2:
        return True
    q, m = M.q, M.rows
    i, j = next(((i, j) for i in range(3) for j in range(3) if i != j and m[i][j]),
                (None, None))
    if i is None:
        return len({m[0][0], m[1][1], m[2][2]}) == 3
    m2 = (M * M).rows
    alpha = m2[i][j] * pow(m[i][j], -1, q)
    return not FqMatrix._over(q, [[a - alpha * b for a, b in zip(row2, row)]
                                  for row2, row in zip(m2, m)]).is_scalar()


def commutant_basis(M: FqMatrix) -> list[FqMatrix]:
    """Basis of the algebra of matrices commuting with M.

    A cyclic M has the commutant F_q[M], with basis I, M, ..., M^(r-1).  A
    scalar or non-cyclic M gets a null-space basis of the commutator
    equations XM - MX = 0 by Gaussian elimination."""
    q, r = M.q, M.rank
    if not M.is_scalar() and _is_cyclic(M):
        basis = [FqMatrix._over(q, [[int(i == j) for j in range(r)] for i in range(r)]), M]
        if r == 3:
            basis.append(M * M)
        return basis
    vecs = _kernel_basis_mod(_commutator_operator(M), q)
    return [FqMatrix._over(q, [v[i * r:(i + 1) * r] for i in range(r)]) for v in vecs]


def commutant_dimension(M: FqMatrix) -> int:
    """F_q-dimension of the commutant of M: in {2, 4} for rank 2 and
    {3, 5, 9} for rank 3."""
    return len(commutant_basis(M))


def sl_order(rank: int, q: int) -> int:
    """|SL_rank(F_q)|, via the E-polynomial of SL_rank evaluated at q."""
    return special_linear_epoly(rank).evaluate(q)


def _gl_order(rank: int, q: int) -> int:
    """|GL_rank(F_q)| = (q^r - 1)(q^r - q) ... (q^r - q^(r-1))."""
    return prod(q ** rank - q ** i for i in range(rank))


def _factor_pattern(chi: tuple[int, ...], q: int) -> list[tuple[int, int]]:
    """(deg f, e) for each irreducible factor f^e of a monic polynomial over
    F_q of degree 2 or 3, ascending coefficients.

    A cubic is scanned for its first root in F_q, which is divided out
    synthetically with its multiplicity; a cubic without a root is
    irreducible.  The monic quadratic x^2 + bx + c that may be left is read
    from its discriminant b^2 - 4c (q is odd): zero gives a double root, a
    nonzero square (Euler's criterion) two roots, a non-square an irreducible
    factor."""
    pattern, desc = [], chi[::-1]
    if len(desc) == 4:
        for a in range(q):
            e = 0
            while len(desc) > 1:
                *quotient, remainder = accumulate(desc, lambda acc, c: (acc * a + c) % q)
                if remainder:
                    break
                desc, e = quotient, e + 1
            if e:
                pattern.append((1, e))
                break
        else:
            return [(3, 1)]
    if len(desc) == 3:
        _, b, c = desc
        disc = (b * b - 4 * c) % q
        if disc == 0:
            pattern.append((1, 2))
        elif pow(disc, (q - 1) // 2, q) == 1:
            pattern += [(1, 1), (1, 1)]
        else:
            pattern.append((2, 1))
    elif len(desc) == 2:
        pattern.append((1, 1))
    return pattern


def _centralizer_orders(M: FqMatrix, cyclic: bool) -> tuple[int, int]:
    """(|C_GL(M)|, |C_SL(M)|) for a non-scalar M.

    A cyclic M has the commutant F_q[x]/(chi), whose units number
    prod q^(d(e-1)) (q^d - 1) over the factors f^e of chi, d = deg f.  The
    determinant of a unit u is the product of N(u mod f)^e, so the
    determinants fill the subgroup of F_q^* of index gcd(q-1, e_1, e_2, ...).
    A non-cyclic, non-scalar M has rank 3 and is diag(a, a, b) or
    J_2(a) + (a); its centralizer meets every determinant."""
    q = M.q
    pattern = _factor_pattern(M.char_poly(), q)
    if cyclic:
        gl = prod(q ** (d * (e - 1)) * (q ** d - 1) for d, e in pattern)
        return gl, gl * gcd(q - 1, *(e for _, e in pattern)) // (q - 1)
    if len(pattern) == 2:  # diag(a, a, b): GL_2 x GL_1
        gl = _gl_order(2, q) * (q - 1)
    else:                  # J_2(a) + (a)
        gl = q ** 3 * (q - 1) ** 2
    return gl, gl // (q - 1)


def count_commuting_det1(M: FqMatrix) -> int:
    """#{B in SL_r(F_q) : BM = MB} = |C_SL(M)|.

    A scalar M short-circuits to |SL_r(F_q)|; otherwise the length of its
    commutant basis tells whether M is cyclic, and the factor pattern of its
    characteristic polynomial gives the order in closed form.
    """
    if M.is_scalar():
        return sl_order(M.rank, M.q)
    return _centralizer_orders(M, len(commutant_basis(M)) == M.rank)[1]


# -- class-equation sweep ---------------------------------------------------------

def _companion(q: int, low: tuple[int, ...]) -> FqMatrix:
    """Companion matrix of x^r + low[r-1] x^(r-1) + ... + low[0]."""
    r = len(low)
    return FqMatrix._over(q, [[-low[i] if j == r - 1 else int(i == j + 1) for j in range(r)]
                              for i in range(r)])


def class_representatives(rank: int, q: int) -> Iterator[FqMatrix]:
    """One matrix of each GL_rank(F_q)-conjugacy class inside SL_rank(F_q),
    by rational canonical form (see the module docstring).  Checks that q is
    an odd prime once, on the first item."""
    _check_field(q)
    if rank == 2:
        for t in range(q):
            yield _companion(q, (1, -t))
    else:
        for t in range(q):
            for s in range(q):
                yield _companion(q, (-1, s, -t))
        for a in range(1, q):
            b = pow(a, -2, q)
            yield FqMatrix._over(q, [[a, 0, 0], [0, 0, -a * b], [0, 1, a + b]])
    for a in range(1, q):
        if pow(a, rank, q) == 1:
            yield FqMatrix._over(q, [[a if i == j else 0 for j in range(rank)]
                                     for i in range(rank)])


def class_size(A: FqMatrix) -> int:
    """|GL_r(F_q)| / |C_GL(A)|: the number of conjugates of A."""
    if A.is_scalar():
        return 1
    centralizer, _ = _centralizer_orders(A, _is_cyclic(A))
    return _gl_order(A.rank, A.q) // centralizer


def check_cells(rank: int, q: int, max_cells: int = DEFAULT_MAX_CELLS) -> None:
    """Refuse a field whose q^(rank^2) matrices exceed max_cells.  Cheap, so
    it runs before the trial-division primality test, which would not end
    for a huge q."""
    cells = q ** (rank * rank)
    if cells > max_cells:
        raise ResourceLimitError(
            f"q^{rank * rank} = {cells} exceeds the cell ceiling {max_cells}")


def count_rep_variety_points(rank: int, n: int, q: int,
                             threads: Optional[int] = None,
                             max_cells: int = DEFAULT_MAX_CELLS) -> int:
    """Exact #{(A, B) in SL_rank(F_q)^2 : A^n B = B A^n}.

    Computes the raw count for any odd prime q; equality with the closed-formula
    E-polynomial at q is only expected when is_admissible(rank, n, q).
    Raises ResourceLimitError when q^(rank^2) exceeds max_cells.  threads is
    accepted for compatibility; the sweep is serial and its result does not
    depend on it.
    """
    if rank not in (2, 3):
        raise ValueError(f"rank must be 2 or 3, got {rank}")
    check_twists(n)
    if q % 2 == 0:
        raise ValueError(f"q must be an odd prime, got {q}")
    check_cells(rank, q, max_cells)
    # class_representatives checks the primality of q, once
    return sum(class_size(A) * count_commuting_det1(A.pow(n))
               for A in class_representatives(rank, q))
