"""Finite-field counting oracle for the representation variety.

Counts pairs (A, B) of SL_r matrices over a prime field F_q with A^n
commuting with B.  The commutant size of A^n depends only on the conjugacy
class of A, so the count is a sum over the GL_r(F_q)-classes C inside
SL_r(F_q) (the class equation):

    count = sum over C of |GL_r(F_q)| / |C_GL(A_C)| * #{B in SL_r(F_q) : B A_C^n = A_C^n B}.

For r <= 3 a class is fixed by its kind and its characteristic polynomial
chi, so the representatives A_C are

* cyclic: the companion matrix of each det-1 characteristic polynomial
  (x^2 - t x + 1, resp. x^3 - t x^2 + s x - 1): q resp. q^2 classes;
* non-cyclic: at rank 3, diag(a) + companion((x - a)(x - a^-2)) for each
  a in F_q^*, the classes whose minimal polynomial has degree 2 (for
  a^3 = 1 this is J_2(a) + (a), otherwise diag(a, a, a^-2));
* scalar: a*I with a^r = 1, each a class of size 1.

The sweep visits one class per orbit of the group generated by A -> zA
(z^r = 1, so zI is in SL_r) and A -> A^-1, weighted by the orbit size.
Both maps send GL-classes to GL-classes and keep the centralizer in GL_r,
hence the class size; and (zA)^n = z^n A^n and (A^-1)^n = (A^n)^-1 have
the centralizer of A^n, hence the same #{B}.  On chi = sum c_i x^i, zA
multiplies c_i by z^(r-i), and A^-1 gives the reversed polynomial times
(-1)^r (det A = 1): at rank 3 (c_1, c_2) -> (-c_2, -c_1), at rank 2 chi is
unchanged.  An orbit is represented by its least chi; it has up to 6
classes at rank 3 (when 3 | q - 1) and up to 2 at rank 2.  The classes of
each kind come in ascending chi (cyclic: c_1 in the outer loop, c_2 in the
inner; non-cyclic and scalar: sorted), so the first class of an orbit the
sweep meets is its least.  The sweep keeps one bytearray of q^(r-1) flags
per kind, indexed by chi's middle coefficients: a representative flags its
images and is weighted by the number of flags it sets, and a flagged class
is skipped.

The orders of the centralizers C_GL(A_C) and C_SL(A_C^n) are closed forms in
q, read from the factor pattern of the characteristic polynomial (its roots
in F_q with multiplicity) and from whether the matrix is cyclic (see
_centralizer_orders).  The sweep types A_C from its kind and the chi it was
built from.  For A_C^n, a non-scalar matrix M is cyclic iff its minimal
polynomial has degree r, which is read off M and M^2 without row reduction
(_is_cyclic); the commutant of a cyclic M is then F_q[M], with basis
I, M, ..., M^(r-1).  Only scalar and non-cyclic matrices have their
commutant computed by Gaussian elimination.  Nothing is enumerated: at
rank 3 about q^2 / 6 orbits (q^2 / 2 when 3 does not divide q - 1) replace
the q^9 matrices of a direct enumeration.

The count equals the closed-formula E-polynomial at q when rank*n | q-1
(is_admissible).  The sweep is serial: the threads argument is accepted and
has no effect on the result.  It steps through about q^(r-1) classes (q^2 + q
at rank 3, q + 2 at rank 2) and refuses a field whose q^(r-1) exceeds
MAX_CLASSES; that check is O(1) and runs before the primality test of q, which
would not end for a huge q.  A^n is computed as A^(n mod |GL_r(F_q)|), exact
by Lagrange's theorem, so the cost of a class does not grow with n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb, gcd, prod
from operator import mul
from typing import Iterable, Iterator, Optional

from .strata import admissibility_modulus, check_twists, is_admissible, is_prime

__all__ = [
    "FqMatrix", "MAX_CLASSES",
    "sl_order", "is_admissible", "admissibility_modulus",
    "commutant_dimension", "commutant_basis",
    "count_commuting_det1", "class_representatives", "class_size",
    "count_rep_variety_points",
]

#: Largest q^(rank-1), about the number of classes the sweep steps through,
#: that count_rep_variety_points accepts: rank 3 up to q = 631, rank 2 up to
#: q = 399989.
MAX_CLASSES = 400_000


#: Rows of the identity matrix of each rank.
_IDENTITY = {r: tuple(tuple(int(i == j) for j in range(r)) for i in range(r)) for r in (2, 3)}


def _check_field(q: int) -> None:
    if q % 2 == 0 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")


def _is_scalar(rows) -> bool:
    d = rows[0][0]
    return all(x == (d if i == j else 0) for i, row in enumerate(rows) for j, x in enumerate(row))


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
    def _of(cls, q: int, rows: tuple[tuple[int, ...], ...]) -> FqMatrix:
        """Square matrix over a field that _check_field has already accepted,
        from a tuple of row tuples whose entries are already reduced."""
        m = object.__new__(cls)
        object.__setattr__(m, "q", q)
        object.__setattr__(m, "rows", rows)
        return m

    @classmethod
    def _over(cls, q: int, rows: Iterable[Iterable[int]]) -> FqMatrix:
        """As _of, for rows whose entries still need reducing."""
        return cls._of(q, tuple(tuple(x % q for x in row) for row in rows))

    @staticmethod
    def identity(rank: int, q: int) -> FqMatrix:
        return FqMatrix(q, _IDENTITY[rank])

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __mul__(self, other: FqMatrix) -> FqMatrix:
        if self.q != other.q or self.rank != other.rank:
            raise ValueError("incompatible matrices")
        q, cols = self.q, tuple(zip(*other.rows))
        return FqMatrix._of(q, tuple(tuple(sum(map(mul, row, col)) % q for col in cols)
                                     for row in self.rows))

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
        return _is_scalar(self.rows)

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


def _is_cyclic(M: FqMatrix, M2: Optional[FqMatrix] = None) -> bool:
    """Whether a non-scalar M is cyclic, i.e. its minimal polynomial has
    degree r.  At rank 2 every non-scalar M is.  At rank 3 M is not iff
    M^2 = alpha M + beta I: alpha is read off an entry M[i][j] != 0 with
    i != j, where I vanishes, and M^2 - alpha M must then be scalar.  A
    diagonal M is cyclic iff its three entries are distinct.  M2, when
    given, is M * M."""
    if M.rank == 2:
        return True
    q, m = M.q, M.rows
    i, j = next(((i, j) for i in range(3) for j in range(3) if i != j and m[i][j]),
                (None, None))
    if i is None:
        return len({m[0][0], m[1][1], m[2][2]}) == 3
    m2 = (M * M if M2 is None else M2).rows
    alpha = m2[i][j] * pow(m[i][j], -1, q)
    return not _is_scalar([[(a - alpha * b) % q for a, b in zip(row2, row)]
                           for row2, row in zip(m2, m)])


def commutant_basis(M: FqMatrix) -> list[FqMatrix]:
    """Basis of the algebra of matrices commuting with M.

    A cyclic M has the commutant F_q[M], with basis I, M, ..., M^(r-1).  A
    scalar or non-cyclic M gets a null-space basis of the commutator
    equations XM - MX = 0 by Gaussian elimination.  At rank 3, M^2 is formed
    once, for both the cyclicity test and the basis."""
    q, r = M.q, M.rank
    if not M.is_scalar():
        M2 = M * M if r == 3 else None
        if _is_cyclic(M, M2):
            basis = [FqMatrix._of(q, _IDENTITY[r]), M]
            return basis + [M2] if r == 3 else basis
    vecs = _kernel_basis_mod(_commutator_operator(M), q)
    return [FqMatrix._of(q, tuple(tuple(v[i * r:(i + 1) * r]) for i in range(r))) for v in vecs]


def commutant_dimension(M: FqMatrix) -> int:
    """F_q-dimension of the commutant of M: in {2, 4} for rank 2 and
    {3, 5, 9} for rank 3."""
    return len(commutant_basis(M))


def _gl_order(rank: int, q: int) -> int:
    """|GL_rank(F_q)| = (q^r - 1)(q^r - q) ... (q^r - q^(r-1))."""
    return prod(q ** rank - q ** i for i in range(rank))


def sl_order(rank: int, q: int) -> int:
    """|SL_rank(F_q)|: det maps GL_rank(F_q) onto F_q^* with kernel SL_rank."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return _gl_order(rank, q) // (q - 1)


def _factor_pattern(chi: tuple[int, ...], q: int) -> list[tuple[int, int]]:
    """(deg f, e) for each irreducible factor f^e of a monic polynomial over
    F_q of degree 2 or 3, ascending coefficients; q is an odd prime.

    A quadratic x^2 + bx + c is read from its discriminant b^2 - 4c: zero
    gives a double root, a nonzero square (Euler's criterion) two roots, a
    non-square an irreducible factor.  A cubic f = x^3 + c2 x^2 + c1 x + c0
    is read from its discriminant
    D = c2^2 c1^2 - 4 c1^3 - 4 c2^3 c0 - 27 c0^2 + 18 c2 c1 c0, the product
    of the squared root differences in any characteristic:

    * D = 0: the roots are a, a, b in F_q, and c2^2 - 3 c1 = (a - b)^2 tells
      a triple root from a double one;
    * D a non-square: by Stickelberger's theorem a squarefree f has a number
      of irreducible factors of the parity of deg f iff D is a square, so f
      is a linear times an irreducible quadratic factor;
    * D a nonzero square: f has three roots or none in F_q, and it has three
      iff x^q = x mod f, found by square-and-multiply in O(log q) products.
    """
    if len(chi) == 3:
        c, b, _ = chi
        disc = (b * b - 4 * c) % q
        if disc == 0:
            return [(1, 2)]
        return [(1, 1), (1, 1)] if pow(disc, (q - 1) // 2, q) == 1 else [(2, 1)]
    c0, c1, c2, _ = chi
    disc = (c2 * c2 * c1 * c1 - 4 * c1 ** 3 - 4 * c2 ** 3 * c0 - 27 * c0 * c0
            + 18 * c2 * c1 * c0) % q
    if disc == 0:
        return [(1, 3)] if (c2 * c2 - 3 * c1) % q == 0 else [(1, 2), (1, 1)]
    if pow(disc, (q - 1) // 2, q) != 1:
        return [(1, 1), (2, 1)]
    # u = x^k mod f as (u0, u1, u2), k running through the leading bits of q;
    # x^3 = -(c2 x^2 + c1 x + c0) reduces the x^4 and x^3 terms of u^2
    u0, u1, u2 = 0, 1, 0
    for bit in bin(q)[3:]:
        p4 = u2 * u2 % q
        p3 = (2 * u1 * u2 - p4 * c2) % q
        p2, p1 = 2 * u0 * u2 + u1 * u1 - p4 * c1, 2 * u0 * u1 - p4 * c0
        u0, u1, u2 = (u0 * u0 - p3 * c0) % q, (p1 - p3 * c1) % q, (p2 - p3 * c2) % q
        if bit == "1":
            u0, u1, u2 = -u2 * c0 % q, (u0 - u2 * c1) % q, (u1 - u2 * c2) % q
    return [(1, 1)] * 3 if (u0, u1, u2) == (0, 1, 0) else [(3, 1)]


def _centralizer_orders(chi: tuple[int, ...], q: int, cyclic: bool) -> tuple[int, int]:
    """(|C_GL(M)|, |C_SL(M)|) for a non-scalar M with characteristic
    polynomial chi.

    A cyclic M has the commutant F_q[x]/(chi), whose units number
    prod q^(d(e-1)) (q^d - 1) over the factors f^e of chi, d = deg f.  The
    determinant of a unit u is the product of N(u mod f)^e, so the
    determinants fill the subgroup of F_q^* of index gcd(q-1, e_1, e_2, ...).
    A non-cyclic, non-scalar M has rank 3 and is diag(a, a, b) or
    J_2(a) + (a); its centralizer meets every determinant."""
    pattern = _factor_pattern(chi, q)
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
    return _centralizer_orders(M.char_poly(), M.q, len(commutant_basis(M)) == M.rank)[1]


# -- class-equation sweep ---------------------------------------------------------

def _companion(q: int, low: tuple[int, ...]) -> FqMatrix:
    """Companion matrix of x^r + low[r-1] x^(r-1) + ... + low[0]."""
    r = len(low)
    return FqMatrix._over(q, [[-low[i] if j == r - 1 else int(i == j + 1) for j in range(r)]
                              for i in range(r)])


def _classes(rank: int, q: int) -> Iterator[tuple[str, tuple[int, ...], partial[FqMatrix]]]:
    """(kind, chi, make) for each GL_rank(F_q)-conjugacy class inside
    SL_rank(F_q), by rational canonical form (see the module docstring); chi
    is the characteristic polynomial of the class, ascending coefficients,
    and make() builds its matrix.  The classes of each kind come in
    ascending chi.  q must have passed _check_field."""
    if rank == 2:
        for c1 in range(q):
            chi = (1, c1, 1)
            yield "cyclic", chi, partial(_companion, q, chi[:-1])
    else:
        for c1 in range(q):
            for c2 in range(q):
                chi = (q - 1, c1, c2, 1)
                yield "cyclic", chi, partial(_companion, q, chi[:-1])
        # (x - a)^2 (x - b) with a^2 b = 1
        for chi, a, b in sorted(((q - 1, a * (a + 2 * b) % q, -(2 * a + b) % q, 1), a, b)
                                for a in range(1, q) for b in [pow(a, -2, q)]):
            yield "non-cyclic", chi, partial(FqMatrix._over, q,
                                             [[a, 0, 0], [0, 0, -a * b], [0, 1, a + b]])
    scalars = sorted((tuple(comb(rank, i) * (-a) ** (rank - i) % q for i in range(rank + 1)), a)
                     for a in range(1, q) if pow(a, rank, q) == 1)
    for chi, a in scalars:
        yield "scalar", chi, partial(FqMatrix._over, q,
                                     [[a if i == j else 0 for j in range(rank)]
                                      for i in range(rank)])


def _flag(mid, q: int) -> int:
    """Index of the middle coefficients of chi in the sweep's flags."""
    return mid[0] * q + mid[1] if len(mid) == 2 else mid[0]


def class_representatives(rank: int, q: int) -> Iterator[FqMatrix]:
    """One matrix of each GL_rank(F_q)-conjugacy class inside SL_rank(F_q),
    by rational canonical form (see the module docstring).  Raises ValueError
    unless q is an odd prime."""
    _check_field(q)
    return (make() for _, _, make in _classes(rank, q))


def class_size(A: FqMatrix) -> int:
    """|GL_r(F_q)| / |C_GL(A)|: the number of conjugates of A."""
    if A.is_scalar():
        return 1
    return _gl_order(A.rank, A.q) // _centralizer_orders(A.char_poly(), A.q, _is_cyclic(A))[0]


def count_rep_variety_points(rank: int, n: int, q: int,
                             threads: Optional[int] = None) -> int:
    """Exact #{(A, B) in SL_rank(F_q)^2 : A^n B = B A^n}.

    Computes the raw count for any odd prime q; equality with the closed-formula
    E-polynomial at q is only expected when is_admissible(rank, n, q).
    Raises ValueError when q^(rank-1) exceeds MAX_CLASSES.  threads is
    accepted for compatibility; the sweep is serial and its result does not
    depend on it.
    """
    if rank not in (2, 3):
        raise ValueError(f"rank must be 2 or 3, got {rank}")
    check_twists(n)
    classes = q ** (rank - 1)
    if classes > MAX_CLASSES:
        raise ValueError(f"q^{rank - 1} = {classes} classes exceeds the class "
                         f"ceiling {MAX_CLASSES}")
    _check_field(q)
    # A^|GL_r(F_q)| = I, so n may be reduced mod the group order; a zero
    # remainder keeps the exponent at the order itself, since pow needs n >= 1
    order = _gl_order(rank, q)
    n = n % order or order
    # chi's first and last coefficients are fixed by the orbit maps, so an
    # image of chi is one of its middle coefficients mid = chi[1:-1]: zA
    # multiplies c_i by z^(r-i), A^-1 reverses mid and multiplies it by (-1)^r
    weights = [tuple(pow(z, rank - i, q) for i in range(1, rank))
               for z in range(1, q) if pow(z, rank, q) == 1]
    sign = (-1) ** rank
    total, flags, flagged_kind = 0, None, None
    for kind, chi, make in _classes(rank, q):
        if kind != flagged_kind:
            flags, flagged_kind = bytearray(classes), kind
        mid = chi[1:-1]
        if flags[_flag(mid, q)]:
            continue
        orbit = 0
        images = [[c * w % q for c, w in zip(mid, ws)] for ws in weights]
        for image in images + [[sign * c % q for c in image[::-1]] for image in images]:
            i = _flag(image, q)
            orbit += not flags[i]
            flags[i] = 1
        size = 1 if kind == "scalar" else order // _centralizer_orders(
            chi, q, kind == "cyclic")[0]
        total += orbit * size * count_commuting_det1(make().pow(n))
    return total
