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

The count is one pass: a walk over the non-scalar classes (_classes) and
one loop that types each class it yields.  The walk visits one cyclic class
per orbit of the group generated by A -> zA (z^r = 1, so zI is in SL_r) and
A -> A^-1, weighted by the orbit size.  Both maps send GL-classes to GL-classes and keep the
centralizer in GL_r, hence the class size; and (zA)^n = z^n A^n and
(A^-1)^n = (A^n)^-1 have the centralizer of A^n, hence the same #{B}.  On
chi = sum c_i x^i, zA multiplies c_i by z^(r-i), and A^-1 gives the reversed
polynomial times (-1)^r (det A = 1): at rank 3 (c_1, c_2) -> (-c_2, -c_1),
at rank 2 chi is unchanged.  An orbit is represented by its least chi; it
has up to 6 classes at rank 3 (when 3 | q - 1) and up to 2 at rank 2.  The
walk keeps one bytearray of q^(r-1) flags, indexed by chi's middle
coefficients (c_1 at rank 2, c_1 q + c_2 at rank 3), and steps through the
unflagged indices in ascending order with bytearray.find, so the first
class of an orbit it meets is its least.  A class it visits flags its
images and is weighted by the number of flags it sets; a flagged class is
skipped unseen.  At rank 3 the walk then yields each of the q - 1
non-cyclic classes with weight 1.  The gcd(r, q - 1) scalars are not
walked: each is a class of size 1 with a scalar n-th power, so each adds
|SL_r(F_q)| = |GL_r(F_q)| / (q - 1), in closed form.

Each yielded class is typed twice, without a matrix: A from chi (cyclic) or
from a (J_2(a) + (a) if a^3 = 1, otherwise diag(a, a, a^-2)), and A^n
(_power_type) from a^n or from the residue x^n mod chi (_x_power, the
square-and-multiply kernel that also decides _factor_pattern's cubics).  A
GL type is the factor pattern of the characteristic polynomial (its roots
in F_q with multiplicity) and whether the matrix is cyclic; a scalar has its
own type.  The weights go into a histogram keyed by (type of A, type of
A^n).  #{B} = |C_SL(A^n)| depends only on the type of A^n: it is
|SL_r(F_q)|, stated once, for a scalar A^n, and the first time the loop
meets a non-scalar type of A^n it builds the power A^n of that class, from
its chi or a (_representative), and asks count_commuting_det1 for it.  The
count is gcd(r, q - 1) |SL_r(F_q)| for the scalars plus the sum over the
histogram of weight x |GL_r(F_q)| / |C_GL(A)| x #{B}.  At rank 3 there are
at most 7 non-scalar types of A^n (3 at rank 2), against about q^2 / 6
visited cyclic classes (q^2 / 2 when 3 does not divide q - 1), and nothing
is enumerated: a direct enumeration would step through q^9 matrices.

The orders of the centralizers C_GL(M) and C_SL(M) are closed forms in q, one
row of _CENTRALIZERS per GL type of a non-scalar M: eight cyclic types at
ranks 2 and 3 and the non-cyclic diag(a, a, b) and J_2(a) + (a) at rank 3.
The count's matrices (FqMatrix, built by FqMatrix._of alone) and their
typing (count_commuting_det1, commutant_basis, for a non-scalar M only) are
internals, not package names: straight-line code over the entries, with
nothing row-reduced.

The count bounds its q^(r-1) flags by MAX_CLASSES before the primality test
of q, and reduces n mod |GL_r(F_q)|, exact by Lagrange's theorem, so the cost
of a class grows only with the bits of that remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Iterator, Optional

from .strata import admissibility_modulus, check_rank, check_twists, is_admissible, shown

__all__ = ["MAX_CLASSES", "is_admissible", "admissibility_modulus", "count_rep_variety_points"]

#: Largest q^(rank-1), the number of cyclic classes the sweep steps through,
#: that count_rep_variety_points accepts: rank 3 up to q = 631, rank 2 up to
#: q = 399989.
MAX_CLASSES = 400_000


#: Rows of the identity matrix of each rank.
_IDENTITY = {r: tuple(tuple(int(i == j) for j in range(r)) for i in range(r)) for r in (2, 3)}


#: The first 13 primes.  As Miller-Rabin bases they decide primality exactly
#: below _PRIME_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017), so a field
#: size at or above it is refused before any work.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(q: int) -> bool:
    """Exact primality of q < _PRIME_LIMIT by deterministic Miller-Rabin:
    q is prime iff it is a strong probable prime to every base in
    _PRIME_BASES.  Raises ValueError for q >= _PRIME_LIMIT."""
    if q >= _PRIME_LIMIT:
        raise ValueError(f"q = {shown(q)} is not below {_PRIME_LIMIT}, the bound up to "
                         "which primality is decided exactly")
    if q < 2:
        return False
    for a in _PRIME_BASES:
        if q % a == 0:
            return q == a
    # q - 1 = d * 2^s with d odd
    s = ((q - 1) & (1 - q)).bit_length() - 1
    d = (q - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _check_field(q: int) -> None:
    # the type first: is_prime would take 7.0 for 7, and a bool is an int
    if type(q) is not int or q % 2 == 0 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {shown(q)}")


@dataclass(frozen=True, slots=True, init=False)
class FqMatrix:
    """Immutable r x r matrix over the prime field F_q (entries reduced), built by _of."""

    q: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def _of(cls, q: int, rows: tuple[tuple[int, ...], ...]) -> FqMatrix:
        """The matrix with these reduced row tuples over a field that _check_field
        has accepted."""
        m = _new(cls)
        _set_q(m, q)
        _set_rows(m, rows)
        return m

    def __mul__(self, other: FqMatrix) -> FqMatrix:
        q = self.q
        if len(self.rows) == 2:
            (a, b), (c, d) = self.rows
            (e, f), (g, h) = other.rows
            return FqMatrix._of(q, (((a * e + b * g) % q, (a * f + b * h) % q),
                                    ((c * e + d * g) % q, (c * f + d * h) % q)))
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        (j, k, l), (m, n, o), (s, t, u) = other.rows
        return FqMatrix._of(q, (((a * j + b * m + c * s) % q, (a * k + b * n + c * t) % q,
                                 (a * l + b * o + c * u) % q),
                                ((d * j + e * m + f * s) % q, (d * k + e * n + f * t) % q,
                                 (d * l + e * o + f * u) % q),
                                ((g * j + h * m + i * s) % q, (g * k + h * n + i * t) % q,
                                 (g * l + h * o + i * u) % q)))

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

    def is_scalar(self) -> bool:
        if len(self.rows) == 2:
            (a, b), (c, d) = self.rows
            return not (b or c) and a == d
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        return not (b or c or d or f or g or h) and a == e == i

    def char_poly(self) -> tuple[int, ...]:
        """Monic characteristic polynomial, ascending coefficients."""
        q = self.q
        if len(self.rows) == 2:
            (a, b), (c, d) = self.rows
            return ((a * d - b * c) % q, -(a + d) % q, 1)
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        ei_fh, di_fg, dh_eg = e * i - f * h, d * i - f * g, d * h - e * g
        return (-(a * ei_fh - b * di_fg + c * dh_eg) % q,
                (a * e - b * d + a * i - c * g + ei_fh) % q, -(a + e + i) % q, 1)


#: Bound once for FqMatrix._of: the slot setters bypass its __setattr__,
#: which refuses, and beat object.__setattr__.
_new = object.__new__
_set_q, _set_rows = (FqMatrix.__dict__[name].__set__ for name in ("q", "rows"))


# -- commutants in closed form ------------------------------------------------------

def _double_eigenvalue(M: FqMatrix, M2: FqMatrix) -> Optional[int]:
    """None if a non-scalar rank-3 M is cyclic, i.e. its minimal polynomial
    has degree 3; otherwise the eigenvalue a with M - aI of rank 1.  M is not
    cyclic iff M^2 = alpha M + beta I: alpha is read off an entry M[i][j] != 0
    with i != j, where I vanishes, and M^2 - alpha M must then be scalar.  The
    minimal polynomial is then (x - a)(x - b) with characteristic polynomial
    (x - a)^2 (x - b), so a = tr M - alpha.  A diagonal M is cyclic iff its
    three entries are distinct, and a is the repeated one.  M2 is M * M."""
    q = M.q
    (a, b, c), (d, e, f), (g, h, i) = M.rows
    (a2, b2, c2), (d2, e2, f2), (g2, h2, i2) = M2.rows
    # M^2 - alpha M is scalar iff x M^2 - y M is, x = M[i][j], y = M^2[i][j]
    x, y = ((b, b2) if b else (c, c2) if c else (d, d2) if d else
            (f, f2) if f else (g, g2) if g else (h, h2))
    if not x:  # M is diagonal
        return a if a == e or a == i else e if e == i else None
    if ((x * b2 - y * b) % q or (x * c2 - y * c) % q or (x * d2 - y * d) % q
            or (x * f2 - y * f) % q or (x * g2 - y * g) % q or (x * h2 - y * h) % q):
        return None
    s = (x * a2 - y * a) % q
    if (x * e2 - y * e) % q != s or (x * i2 - y * i) % q != s:
        return None
    return (a + e + i - y * pow(x, -1, q)) % q


def _perp(v: tuple[int, ...], q: int) -> tuple[tuple[int, ...], ...]:
    """Basis of {p : v . p = 0} for a nonzero v in F_q^3: v_k e_j - v_j e_k
    for j != k, where v_k is the first nonzero entry."""
    v0, v1, v2 = v
    if v0:
        return (-v1 % q, v0, 0), (-v2 % q, 0, v0)
    if v1:
        return (v1, 0, 0), (0, -v2 % q, v1)
    return (v2, 0, 0), (0, v2, 0)


def _outer(p: tuple[int, ...], c: tuple[int, ...], q: int) -> FqMatrix:
    """The rank-3 matrix p c^T."""
    p0, p1, p2 = p
    c0, c1, c2 = c
    return FqMatrix._of(q, ((p0 * c0 % q, p0 * c1 % q, p0 * c2 % q),
                            (p1 * c0 % q, p1 * c1 % q, p1 * c2 % q),
                            (p2 * c0 % q, p2 * c1 % q, p2 * c2 % q)))


def commutant_basis(M: FqMatrix) -> list[FqMatrix]:
    """Basis of the algebra of matrices commuting with a non-scalar M, in
    closed form.

    A cyclic M gets the basis I, ..., M^(r-1) of F_q[M].  A non-cyclic M has
    rank 3 and a double eigenvalue a with M - aI = u v^T of rank 1
    (_double_eigenvalue): u spans its columns and v its rows.  X commutes
    with u v^T iff Xu = cu and v^T X = c v^T for one scalar c: applying
    X u v^T = u v^T X to a w with v^T w = 1 gives Xu = (v^T X w) u, and
    cancelling u != 0 then gives the second.  So X - cI has its columns in
    v-perp and its rows in u-perp, and the basis is I and the four p c^T with
    v^T p = 0 and c^T u = 0 (_perp).  At rank 3, M^2 is formed once, for both
    the cyclicity test and the basis."""
    q, m = M.q, M.rows
    r = len(m)
    ident = FqMatrix._of(q, _IDENTITY[r])
    if r == 2:
        return [ident, M]
    M2 = M * M
    a = _double_eigenvalue(M, M2)
    if a is None:
        return [ident, M, M2]
    (m0, m1, m2), (m3, m4, m5), (m6, m7, m8) = m
    d0, d4, d8 = (m0 - a) % q, (m4 - a) % q, (m8 - a) % q
    # the first nonzero row of M - aI is v^T up to a scalar, its first
    # nonzero column u
    v = ((d0, m1, m2) if d0 or m1 or m2 else (m3, d4, m5) if m3 or d4 or m5
         else (m6, m7, d8))
    u = ((d0, m3, m6) if d0 or m3 or m6 else (m1, d4, m7) if m1 or d4 or m7
         else (m2, m5, d8))
    p1, p2 = _perp(v, q)
    c1, c2 = _perp(u, q)
    return [ident, _outer(p1, c1, q), _outer(p1, c2, q), _outer(p2, c1, q), _outer(p2, c2, q)]


def _gl_order(rank: int, q: int) -> int:
    """|GL_rank(F_q)| = (q^r - 1)(q^r - q) ... (q^r - q^(r-1))."""
    return prod(q ** rank - q ** i for i in range(rank))


def _factor_pattern(chi: tuple[int, ...], q: int) -> tuple[tuple[int, int], ...]:
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
      iff x^q = x mod f (_x_power, O(log q) products).
    """
    if len(chi) == 3:
        c, b, _ = chi
        disc = (b * b - 4 * c) % q
        if disc == 0:
            return ((1, 2),)
        return ((1, 1), (1, 1)) if pow(disc, (q - 1) // 2, q) == 1 else ((2, 1),)
    c0, c1, c2, _ = chi
    disc = (c2 * c2 * c1 * c1 - 4 * c1 ** 3 - 4 * c2 ** 3 * c0 - 27 * c0 * c0
            + 18 * c2 * c1 * c0) % q
    if disc == 0:
        return ((1, 3),) if (c2 * c2 - 3 * c1) % q == 0 else ((1, 2), (1, 1))
    if pow(disc, (q - 1) // 2, q) != 1:
        return ((1, 1), (2, 1))
    return ((1, 1), (1, 1), (1, 1)) if _x_power(chi, q, q) == (0, 1, 0) else ((3, 1),)


def _x_power(chi: tuple[int, ...], e: int, q: int) -> tuple[int, ...]:
    """x^e mod chi, e >= 1, as ascending coefficients of degree < deg chi,
    for a monic chi of degree 2 or 3 (ascending coefficients), by
    square-and-multiply on residues: u = x^k mod chi runs through the leading
    bits k of e, and x^2 = -(c1 x + c0) resp. x^3 = -(c2 x^2 + c1 x + c0)
    reduces the top terms of u^2 and x u."""
    if len(chi) == 3:
        c0, c1, _ = chi
        u0, u1 = 0, 1
        for bit in bin(e)[3:]:
            p2 = u1 * u1 % q
            u0, u1 = (u0 * u0 - p2 * c0) % q, (2 * u0 * u1 - p2 * c1) % q
            if bit == "1":
                u0, u1 = -u1 * c0 % q, (u0 - u1 * c1) % q
        return u0, u1
    c0, c1, c2, _ = chi
    u0, u1, u2 = 0, 1, 0
    for bit in bin(e)[3:]:
        p4 = u2 * u2 % q
        p3 = (2 * u1 * u2 - p4 * c2) % q
        p2, p1 = 2 * u0 * u2 + u1 * u1 - p4 * c1, 2 * u0 * u1 - p4 * c0
        u0, u1, u2 = (u0 * u0 - p3 * c0) % q, (p1 - p3 * c1) % q, (p2 - p3 * c2) % q
        if bit == "1":
            u0, u1, u2 = -u2 * c0 % q, (u0 - u2 * c1) % q, (u1 - u2 * c2) % q
    return u0, u1, u2


#: (|C_GL(M)|, |C_GL(M)| / |C_SL(M)|) for a non-scalar M, closed forms in q
#: keyed by the factor pattern of its characteristic polynomial
#: (_factor_pattern) and whether M is cyclic.  A cyclic M has the commutant
#: F_q[x]/(chi), whose units number prod q^(d(e-1)) (q^d - 1) over the factors
#: f^e of chi, d = deg f; the determinant of a unit u is the product of
#: N(u mod f)^e, so the determinants fill the subgroup of F_q^* of index
#: gcd(q-1, e_1, e_2, ...): 2 for J_2(a) (q odd), gcd(q-1, 3) for J_3(a), 1
#: otherwise.  A non-cyclic, non-scalar M has rank 3 and is diag(a, a, b),
#: centralized by GL_2 x GL_1, or J_2(a) + (a); its centralizer meets every
#: determinant.
_CENTRALIZERS = {
    # rank 2, cyclic: J_2(a), diag(a, b), chi irreducible
    (((1, 2),), True): lambda q: (q * (q - 1), (q - 1) // 2),
    (((1, 1), (1, 1)), True): lambda q: ((q - 1) ** 2, q - 1),
    (((2, 1),), True): lambda q: (q * q - 1, q - 1),
    # rank 3, cyclic: J_3(a), J_2(a) + (b), diag(a, b, c), (a) + an irreducible
    # quadratic, chi irreducible
    (((1, 3),), True): lambda q: (q * q * (q - 1), (q - 1) // gcd(q - 1, 3)),
    (((1, 2), (1, 1)), True): lambda q: (q * (q - 1) ** 2, q - 1),
    (((1, 1), (1, 1), (1, 1)), True): lambda q: ((q - 1) ** 3, q - 1),
    (((1, 1), (2, 1)), True): lambda q: ((q - 1) * (q * q - 1), q - 1),
    (((3, 1),), True): lambda q: (q ** 3 - 1, q - 1),
    # rank 3, non-cyclic: diag(a, a, b), J_2(a) + (a)
    (((1, 2), (1, 1)), False): lambda q: ((q * q - 1) * (q * q - q) * (q - 1), q - 1),
    (((1, 3),), False): lambda q: (q ** 3 * (q - 1) ** 2, q - 1),
}


def count_commuting_det1(M: FqMatrix) -> int:
    """#{B in SL_r(F_q) : BM = MB} = |C_SL(M)| for a non-scalar M (a scalar,
    centralized by all of SL_r(F_q), has no row here): the length of its
    commutant basis tells whether M is cyclic, and with the factor pattern of
    its characteristic polynomial (_factor_pattern) that picks the row of
    _CENTRALIZERS."""
    q = M.q
    gl, index = _CENTRALIZERS[_factor_pattern(M.char_poly(), q),
                              len(commutant_basis(M)) == len(M.rows)](q)
    return gl // index


# -- class-equation sweep ---------------------------------------------------------

def _representative(rank: int, q: int, chi: Optional[tuple[int, ...]],
                    a: Optional[int]) -> FqMatrix:
    """The matrix of a non-scalar class of the sweep, from the class's own
    data: the companion matrix of chi for a cyclic class, otherwise
    diag(a) + companion((y - a)(y - b)), b = a^-2, for the non-cyclic class
    with eigenvalue a."""
    if chi is not None:
        if rank == 2:
            return FqMatrix._of(q, ((0, q - 1), (1, -chi[1] % q)))
        _, c1, c2, _ = chi
        return FqMatrix._of(q, ((0, 0, 1), (1, 0, -c1 % q), (0, 1, -c2 % q)))
    b = pow(a, -2, q)
    return FqMatrix._of(q, ((a, 0, 0), (0, 0, -a * b % q), (0, 1, (a + b) % q)))


#: The GL type of a scalar matrix, which has no row in _CENTRALIZERS.
_SCALAR = (None, False)


def _power_type(q: int, chi: Optional[tuple[int, ...]], a_type: tuple, a: Optional[int],
                n: int) -> tuple:
    """The GL type (factor pattern, cyclic) of A^n, _SCALAR for a scalar, for
    the non-scalar class A of the sweep with GL type a_type and, for the
    cyclic kind, characteristic polynomial chi, for the non-cyclic kind
    eigenvalue a; no matrix is formed.  n >= 1.

    A non-cyclic A is diag(a, a, b), b = a^-2, whose n-th power is scalar iff
    a^n = b^n, i.e. a^(3n) = 1, or J_2(a) + (a) (a^3 = 1), whose n-th power
    a^n I + n a^(n-1) N is scalar iff q | n; otherwise A^n has A's type.  A
    cyclic A is x acting on F_q[x]/(chi), so A^n is p(A) for the residue
    p = x^n mod chi (_x_power).  p(A) is scalar iff p is constant, is A iff
    p = x, and is cyclic iff 1, p, p^2 are independent mod chi; its
    characteristic polynomial is that of multiplication by p, read off the
    traces t_k of p^k through the power sums s_k of chi's roots, and its
    determinant is 1."""
    if a is not None:
        if a_type[0] == ((1, 3),):
            return a_type if n % q else _SCALAR
        return a_type if pow(a, 3 * n, q) != 1 else _SCALAR
    p = _x_power(chi, n, q)
    if len(chi) == 3:
        p0, p1 = p
        if not p1:
            return _SCALAR
        if p == (0, 1):
            return a_type
        # s_1 = -c_1: y^2 - t_1 y + 1
        t1 = (2 * p0 - p1 * chi[1]) % q
        return _factor_pattern((1, -t1 % q, 1), q), True
    p0, p1, p2 = p
    if not (p1 or p2):
        return _SCALAR
    if p == (0, 1, 0):
        return a_type
    c0, c1, c2, _ = chi
    # u = p^2 mod chi, reduced as in _x_power
    p4 = p2 * p2 % q
    p3 = (2 * p1 * p2 - p4 * c2) % q
    u0 = (p0 * p0 - p3 * c0) % q
    u1 = (2 * p0 * p1 - p4 * c0 - p3 * c1) % q
    u2 = (2 * p0 * p2 + p1 * p1 - p4 * c1 - p3 * c2) % q
    # s_0 = 3, s_1 = -c_2, s_2 = c_2^2 - 2 c_1; y^3 - t_1 y^2 + e_2 y - 1 with
    # 2 e_2 = t_1^2 - t_2
    s2 = c2 * c2 - 2 * c1
    t1 = (3 * p0 - p1 * c2 + p2 * s2) % q
    t2 = 3 * u0 - u1 * c2 + u2 * s2
    e2 = (t1 * t1 - t2) * ((q + 1) // 2) % q
    return _factor_pattern((q - 1, e2, -t1 % q, 1), q), (p1 * u2 - p2 * u1) % q != 0


def _classes(rank: int,
             q: int) -> Iterator[tuple[int, Optional[tuple[int, ...]], Optional[int]]]:
    """The non-scalar classes the sweep visits, as (weight, chi, a): the least
    cyclic class of each orbit, weighted by the orbit size, with its
    characteristic polynomial chi and a = None (see the module docstring),
    then at rank 3 each non-cyclic class once, with chi = None and its
    eigenvalue a.  q must have passed _check_field."""
    flags = bytearray(q ** (rank - 1))
    roots = [(z * z % q, z) for z in range(1, q) if pow(z, rank, q) == 1]
    key = 0
    while key >= 0:
        # flag the orbit and count the flags set: zA ((z^2, z) in roots)
        # multiplies c_i by z^(r-i); A^-1 maps (c_1, c_2) to (-c_2, -c_1) at
        # rank 3 and fixes chi at rank 2
        orbit = 0
        if rank == 2:
            for _, z in roots:
                i = key * z % q
                orbit += not flags[i]
                flags[i] = 1
            yield orbit, (1, key, 1), None
        else:
            c1, c2 = divmod(key, q)
            for z2, z in roots:
                a, b = c1 * z2 % q, c2 * z % q
                i, j = a * q + b, -b % q * q + -a % q
                orbit += not flags[i]
                flags[i] = 1
                orbit += not flags[j]
                flags[j] = 1
            yield orbit, (q - 1, c1, c2, 1), None
        key = flags.find(0, key + 1)
    if rank == 3:
        for a in range(1, q):
            yield 1, None, a


def count_rep_variety_points(rank: int, n: int, q: int,
                             threads: Optional[int] = None) -> int:
    """Exact #{(A, B) in SL_rank(F_q)^2 : A^n B = B A^n}.

    Computes the raw count for any odd prime q; equality with the closed-formula
    E-polynomial at q is only expected when is_admissible(rank, n, q).
    Raises ValueError when q^(rank-1) exceeds MAX_CLASSES.  threads is
    accepted for compatibility; the sweep is serial and its result does not
    depend on it.
    """
    check_rank(rank)
    check_twists(n)
    # the cyclic classes the sweep flags, bounded before the primality test;
    # a q that is not an int is refused by _check_field
    if type(q) is int and q ** (rank - 1) > MAX_CLASSES:
        raise ValueError(f"q^{rank - 1} = {shown(q ** (rank - 1))} classes exceeds the class "
                         f"ceiling {MAX_CLASSES}")
    _check_field(q)
    # A^|GL_r(F_q)| = I, so n may be reduced mod the group order; a zero
    # remainder keeps the exponent at the order itself, since pow needs n >= 1
    order = _gl_order(rank, q)
    n = n % order or order
    # class weight per (type of A, type of A^n), and |C_SL(A^n)| per type of
    # A^n: all of SL_r(F_q) for a scalar, otherwise counted on the power of
    # the first class met with that type
    sl = order // (q - 1)
    weights, commuting = {}, {_SCALAR: sl}
    for weight, chi, a in _classes(rank, q):
        if a is None:
            a_type = _factor_pattern(chi, q), True
        else:
            # J_2(a) + (a) if a^3 = 1, otherwise diag(a, a, a^-2)
            a_type = (((1, 3),) if a * a * a % q == 1 else ((1, 2), (1, 1))), False
        power_type = _power_type(q, chi, a_type, a, n)
        types = a_type, power_type
        weights[types] = weights.get(types, 0) + weight
        if power_type not in commuting:
            commuting[power_type] = count_commuting_det1(
                _representative(rank, q, chi, a).pow(n))
    # the gcd(r, q - 1) scalar classes A are single matrices with A^n scalar
    return gcd(rank, q - 1) * sl + sum(
        weight * (order // _CENTRALIZERS[a_type](q)[0]) * commuting[power_type]
        for (a_type, power_type), weight in weights.items())
