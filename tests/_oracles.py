"""Independent oracles used by the tests.

Everything here recomputes expected values by the most direct method
available (exhaustive pair enumeration, orbit partitioning), deliberately
sharing no code with the package's optimized paths.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def sl2_elements(q: int) -> list[tuple[int, int, int, int]]:
    out = []
    for a, b, c, d in itertools.product(range(q), repeat=4):
        if (a * d - b * c) % q == 1:
            out.append((a, b, c, d))
    return out


def mul2(x, y, q):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % q, (a * f + b * h) % q,
            (c * e + d * g) % q, (c * f + d * h) % q)


def pow2(x, n, q):
    r = (1, 0, 0, 1)
    while n:
        if n & 1:
            r = mul2(r, x, q)
        x = mul2(x, x, q)
        n >>= 1
    return r


def gl2_elements(q: int) -> list[tuple[int, int, int, int]]:
    return [m for m in itertools.product(range(q), repeat=4)
            if (m[0] * m[3] - m[1] * m[2]) % q]


def inv2(x, q):
    a, b, c, d = x
    u = pow(a * d - b * c, -1, q)
    return (d * u % q, -b * u % q, -c * u % q, a * u % q)


def count_commuting_pairs_sl2(q: int, n: int) -> int:
    """#{(A,B) in SL2(F_q)^2 : A^n B = B A^n} by full pair enumeration."""
    group = sl2_elements(q)
    total = 0
    for a in group:
        an = pow2(a, n, q)
        for b in group:
            if mul2(an, b, q) == mul2(b, an, q):
                total += 1
    return total


def _is_scalar2(x) -> bool:
    return x[1] == x[2] == 0 and x[0] == x[3]


def _irreducible_pairs_mod_pgl2(sweep, group, n, q) -> int:
    """#{(A, B) : A in sweep, B in group, A^n B = B A^n, tr[A, B] != 2} /
    |PGL2(F_q)|.  A pair of 2x2 matrices is irreducible iff tr[A, B] != 2,
    and PGL2 acts freely on irreducible pairs, so with sweep holding every A
    that can occur this counts the F_q points of the irreducible locus."""
    inverses = [inv2(b, q) for b in group]
    total = 0
    for a in sweep:
        an, ainv = pow2(a, n, q), inv2(a, q)
        for b, binv in zip(group, inverses):
            if mul2(an, b, q) != mul2(b, an, q):
                continue
            x, y = mul2(a, b, q), mul2(ainv, binv, q)
            if (x[0] * y[0] + x[1] * y[2] + x[2] * y[1] + x[3] * y[3]) % q != 2:
                total += 1
    pgl2 = q * (q * q - 1)
    if total % pgl2:
        raise ValueError(f"{total} irreducible pairs is not a multiple of |PGL2| = {pgl2}")
    return total // pgl2


def irreducible_char_points_sl2(q: int, n: int) -> int:
    """#{(A, B) in SL2(F_q)^2 : A^n B = B A^n, tr[A, B] != 2} / |PGL2(F_q)|,
    the F_q points of the irreducible locus of the SL2 character variety."""
    group = sl2_elements(q)
    return _irreducible_pairs_mod_pgl2(group, group, n, q)


def irreducible_char_points_gl2(q: int, n: int) -> int:
    """#{(A', B') in GL2(F_q)^2 : A'^n B' = B' A'^n, tr[A', B'] != 2} /
    |PGL2(F_q)|, the F_q points of the irreducible locus of the GL2
    character variety; rho2 -> rho2 + det(rho2)^-1 maps it onto the (2, 1)
    reducible locus of the SL3 one.  On it A'^n is scalar (Schur) and A' is
    not, so only those A' are swept."""
    group = gl2_elements(q)
    sweep = [a for a in group if _is_scalar2(pow2(a, n, q)) and not _is_scalar2(a)]
    return _irreducible_pairs_mod_pgl2(sweep, group, n, q)


def conjugacy_class_count_sl2(q: int) -> int:
    """Number of conjugacy classes of SL2(F_q) by explicit orbit
    partitioning (pick an unseen element, sweep its whole orbit)."""
    group = sl2_elements(q)
    inverses = [inv2(g, q) for g in group]
    seen: set = set()
    classes = 0
    for a in group:
        if a in seen:
            continue
        classes += 1
        for g, ginv in zip(group, inverses):
            seen.add(mul2(mul2(g, a, q), ginv, q))
    return classes


# -- brute-force F_q counter ----------------------------------------------------
#
# A base-q odometer runs over every r x r matrix over F_q; those of
# determinant 1 are raised to the n-th power and sorted into conjugacy
# classes, and each class contributes its size times the number of B in
# SL_r(F_q) commuting with one member.  It checks the package's class-equation
# sweep, which never enumerates SL_r(F_q).

_BLOCK = 1 << 18


def _odometer(start, stop, q, width):
    """Rows start..stop-1 of the base-q odometer with `width` digits."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, width), dtype=np.int64)
    for pos in range(width - 1, -1, -1):
        out[:, pos] = idx % q
        idx //= q
    return out


def _det(m, q):
    if m.shape[1] == 2:
        return (m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]) % q
    return (m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
            - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
            + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])) % q


def _matpow(m, n, q):
    """The n-th power of every matrix in a stack, n >= 1."""
    result = None
    while n:
        if n & 1:
            result = m if result is None else result @ m % q
        n >>= 1
        if n:
            m = m @ m % q
    return result


@functools.lru_cache(maxsize=4)
def sl_matrices(rank, q):
    """Every determinant-one rank x rank matrix over F_q, shape (N, rank, rank)."""
    cells = q ** (rank * rank)
    kept = []
    for start in range(0, cells, _BLOCK):
        mats = _odometer(start, min(start + _BLOCK, cells), q,
                         rank * rank).reshape(-1, rank, rank)
        kept.append(mats[_det(mats, q) == 1])
    out = np.concatenate(kept)
    out.setflags(write=False)
    return out


def _class_keys(m, q):
    """A conjugacy invariant of each matrix that separates the classes of
    rank <= 3: the characteristic polynomial, and the rank of m - aI when
    that polynomial has a repeated root a.  Distinct eigenvalues, or one
    repeated eigenvalue with a given eigenspace dimension, leave one class."""
    rank = m.shape[1]
    t = np.trace(m, axis1=1, axis2=2) % q
    root = np.full(q ** (rank - 1), -1, dtype=np.int64)  # repeated root per key
    if rank == 2:
        charkey = t
        for a in (1, q - 1):  # (x - a)^2 with a^2 = 1
            root[2 * a % q] = a
    else:
        s = (m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
             + m[:, 0, 0] * m[:, 2, 2] - m[:, 0, 2] * m[:, 2, 0]
             + m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1]) % q
        charkey = t * q + s
        for a in range(1, q):  # (x - a)^2 (x - b) with a^2 b = 1
            b = pow(a, -2, q)
            root[((2 * a + b) % q) * q + (a * a + 2 * a * b) % q] = a
    a = root[charkey]
    shifted = (m - a[:, None, None] * np.eye(rank, dtype=np.int64)) % q
    nonzero = shifted.reshape(len(m), -1).any(axis=1)
    minors = [(shifted[:, i, k] * shifted[:, j, l] - shifted[:, i, l] * shifted[:, j, k]) % q
              for i, j in itertools.combinations(range(rank), 2)
              for k, l in itertools.combinations(range(rank), 2)]
    rank_ge_2 = np.any(minors, axis=0)
    code = np.where(a < 0, 3, nonzero.astype(np.int64) + rank_ge_2)
    return charkey * 4 + code


def _commuting_count(p, group, q):
    """#{B in group : B p = p B}, one linear equation of B p - p B = 0 at a
    time (row-major vec(B p - p B) = (I x p^T - p x I) vec(B))."""
    eye = np.eye(len(p), dtype=np.int64)
    flat = group.reshape(len(group), -1)
    for row in np.kron(eye, p.T) - np.kron(p, eye):
        flat = flat[(flat @ row) % q == 0]
    return len(flat)


def count_rep_variety_points_bruteforce(rank, n, q):
    """#{(A, B) in SL_rank(F_q)^2 : A^n B = B A^n} by enumerating all A."""
    group = sl_matrices(rank, q)
    powered = _matpow(group, n, q)
    _, first, sizes = np.unique(_class_keys(powered, q), return_index=True,
                                return_counts=True)
    return sum(int(size) * _commuting_count(powered[i], group, q)
               for i, size in zip(first.tolist(), sizes.tolist()))


# -- class sum for the irreducible GL2 locus -------------------------------------
#
# The pair sum of irreducible_char_points_gl2 grouped by the class of A': a
# non-scalar 2 x 2 matrix is cyclic, so its characteristic polynomial fixes
# its class, and tr[A', B'] is a class function of A'.  One representative
# per class is paired with all of GL2(F_q) at once; A'^n is scalar, so every
# B' commutes with it.

def irreducible_char_points_gl2_by_classes(q: int, n: int) -> int:
    """irreducible_char_points_gl2(q, n) as a sum over the classes of A':
    #{B' : tr[A', B'] != 2} for one A' per characteristic polynomial, times
    the number of A' that share it, over |PGL2(F_q)|."""
    group = _odometer(0, q ** 4, q, 4).reshape(-1, 2, 2)
    det = _det(group, q)
    group, det = group[det != 0], det[det != 0]
    # B'^-1 = adj(B') / det B'
    inverses = np.stack([group[:, 1, 1], -group[:, 0, 1], -group[:, 1, 0], group[:, 0, 0]],
                        axis=1).reshape(-1, 2, 2)
    inv_det = np.array([0] + [pow(d, -1, q) for d in range(1, q)], dtype=np.int64)
    inverses = inverses * inv_det[det][:, None, None] % q

    def scalar(m):
        return (m[:, 0, 1] == 0) & (m[:, 1, 0] == 0) & (m[:, 0, 0] == m[:, 1, 1])

    sweep = group[scalar(_matpow(group, n, q)) & ~scalar(group)]
    chi = (sweep[:, 0, 0] + sweep[:, 1, 1]) % q * q + _det(sweep, q)
    _, first, sizes = np.unique(chi, return_index=True, return_counts=True)
    total = 0
    for i, size in zip(first.tolist(), sizes.tolist()):
        a = sweep[i]
        a_inv = np.array(inv2(tuple(a.ravel().tolist()), q), dtype=np.int64).reshape(2, 2)
        x, y = a @ group % q, a_inv @ inverses % q
        trace = np.einsum("kij,kji->k", x, y) % q
        total += size * int(np.count_nonzero(trace != 2))
    pgl2 = q * (q * q - 1)
    if total % pgl2:
        raise ValueError(f"{total} irreducible pairs is not a multiple of |PGL2| = {pgl2}")
    return total // pgl2


# -- commutant enumeration ------------------------------------------------------
#
# The centralizer of M in GL_r(F_q) (resp. SL_r(F_q)) is the set of members of
# its commutant {X : XM = MX} with det != 0 (resp. det = 1).  The commutant
# is spanned by a null-space basis of the commutator equations, and all q^d
# members c_1 b_1 + ... + c_d b_d are enumerated with their determinants.  It
# checks the package's closed-form centralizer orders.

def _null_space(a, q):
    """Basis of {x : a x = 0 over F_q}, one vector per row, by reduced row
    echelon form."""
    a = a % q
    pivots = []
    for col in range(a.shape[1]):
        top = len(pivots)
        hits = np.flatnonzero(a[top:, col])
        if not hits.size:
            continue
        a[[top, top + hits[0]]] = a[[top + hits[0], top]]
        a[top] = a[top] * pow(int(a[top, col]), -1, q) % q
        others = np.arange(len(a)) != top
        a[others] = (a[others] - np.outer(a[others, col], a[top])) % q
        pivots.append(col)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        basis[i, pivots] = -a[:len(pivots), f] % q
    return basis


@functools.lru_cache(maxsize=None)
def _span_det_counts(basis, q, rank):
    """(#det != 0, #det = 1) over every F_q-combination of the basis: the
    combinations of the last (at most six) vectors are built at once, entries
    first, and shifted by each combination of the others."""
    basis = np.array(basis, dtype=np.int64).reshape(-1, rank * rank)
    head, tail = basis[:-6], basis[-6:]
    span = np.zeros((rank * rank, 1), dtype=np.int64)
    for b in tail:
        span = (span[:, :, None] + b[:, None, None] * np.arange(q)).reshape(rank * rank, -1) % q
    units = det1 = 0
    zero = np.zeros(rank * rank, dtype=np.int64)
    for coeffs in itertools.product(range(q), repeat=len(head)):
        shift = sum((c * b for c, b in zip(coeffs, head)), zero) % q
        # entries below 2q: the determinant is reduced once, at the end
        dets = _det((span + shift[:, None]).T.reshape(-1, rank, rank), q)
        units += int(np.count_nonzero(dets))
        det1 += int(np.count_nonzero(dets == 1))
    return units, det1


def commutant_null_space(rows, q):
    """Null-space basis of the commutator equations of M, row-major
    vec(XM - MX) = (I x M^T - M x I) vec(X)."""
    m = np.array(rows, dtype=np.int64)
    eye = np.eye(len(m), dtype=np.int64)
    return _null_space(np.kron(eye, m.T) - np.kron(m, eye), q)


def commutant_unit_counts(rows, q):
    """(|C_GL(M)|, |C_SL(M)|) for the matrix M with these rows, by
    enumerating its commutant."""
    basis = commutant_null_space(rows, q)
    return _span_det_counts(tuple(basis.ravel().tolist()), q, len(rows))


def commutant_dimension_by_null_space(rows, q):
    """Dimension of the commutant of M over F_q."""
    return len(commutant_null_space(rows, q))


def matrix_rank(matrices, q):
    """Dimension of the F_q-span of these square matrices (row tuples or
    flat vectors): their number less the dimension of their relations."""
    columns = np.array([np.ravel(m) for m in matrices], dtype=np.int64).T
    return len(matrices) - len(_null_space(columns, q))


def linearly_independent(matrices, q):
    """Whether these square matrices (as row tuples) are linearly
    independent over F_q: no nonzero combination of their entries vanishes."""
    return matrix_rank(matrices, q) == len(matrices)


# -- factor pattern by trial division ---------------------------------------------
#
# Every monic polynomial of degree 1, then of degree 2, is tried as a divisor
# as often as it divides.  Once the linear factors are gone, a quadratic
# divisor is irreducible, and what is left after both rounds has no factor of
# degree 1 or 2.  It checks the package's root scan and discriminant test.

def _divmod_monic(num, den, q):
    """Quotient and remainder of num by the monic den over F_q, ascending
    coefficients."""
    num = list(num)
    quotient = [0] * (len(num) - len(den) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        c = num[k + len(den) - 1] % q
        quotient[k] = c
        for i, d in enumerate(den):
            num[k + i] = (num[k + i] - c * d) % q
    return quotient, num[:len(den) - 1]


def factor_pattern_by_trial_division(chi, q):
    """Sorted (deg f, e) over the irreducible factors f^e of the monic chi
    (ascending coefficients) over F_q, degree <= 3."""
    poly, pattern = list(chi), []
    for degree in (1, 2):
        for low in itertools.product(range(q), repeat=degree):
            divisor, e = list(low) + [1], 0
            while len(poly) > degree:
                quotient, remainder = _divmod_monic(poly, divisor, q)
                if any(remainder):
                    break
                poly, e = quotient, e + 1
            if e:
                pattern.append((degree, e))
    if len(poly) > 1:
        pattern.append((len(poly) - 1, 1))
    return sorted(pattern)


# -- class orbits under A -> zA and A -> A^-1 -------------------------------------
#
# A class of SL_r(F_q), r <= 3, is keyed by the dimension of its commutant and
# its characteristic polynomial.  The orbit of a class is the set of keys of
# the matrices zA and zA^-1 (z^r = 1), formed entry by entry, with A^-1 the
# adjugate of A (det A = 1).  It checks the package's sweep, which moves only
# the coefficients of the characteristic polynomial.

def _det_laplace(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det_laplace([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _char_poly_by_minors(m, q):
    """Monic characteristic polynomial, ascending: the coefficient of
    x^(r-k) is (-1)^k times the sum of the principal k x k minors."""
    r = len(m)
    chi = [0] * (r + 1)
    for k in range(r + 1):
        minors = sum(_det_laplace([[m[i][j] for j in idx] for i in idx]) if idx else 1
                     for idx in itertools.combinations(range(r), k))
        chi[r - k] = (-1) ** k * minors % q
    return tuple(chi)


def class_key(rows, q):
    """(commutant dimension, characteristic polynomial) of a matrix of rank
    <= 3: equal keys mean conjugate matrices."""
    rows = [[x % q for x in row] for row in rows]
    return commutant_dimension_by_null_space(rows, q), _char_poly_by_minors(rows, q)


def set_based_orbits(matrices, q):
    """{least key of each orbit: number of classes in the orbit}, for the
    orbits of the classes of these determinant-one matrices."""
    out = {}
    for rows in matrices:
        r = len(rows)
        adjugate = [[(-1) ** (i + j) * _det_laplace([row[:i] + row[i + 1:]
                                                      for k, row in enumerate(rows) if k != j])
                     for j in range(r)] for i in range(r)]
        orbit = {class_key([[z * x for x in row] for row in m], q)
                 for z in range(1, q) if pow(z, r, q) == 1 for m in (rows, adjugate)}
        out[min(orbit)] = len(orbit)
    return out


# -- twisted Frobenius counts ------------------------------------------------------
#
# A point of the norm-one torus (product 1) twisted by a permutation w is a
# tuple with x_(w(i)) = F(x_i), F the q-th power.  Its coordinates lie in the
# cyclic group F_(q^k)^*, k the order of w, so it is a tuple of exponents mod
# q^k - 1: Frobenius multiplies by q, the n-th power by n, and two
# coordinates coincide iff their exponents do.  For a stratum of Tate type
# with a W-action, the count twisted by w is sum_chi chi(w) e_chi(q), so the
# counts over the classes of W give the components of its equivariant class.
# It checks the package's configuration rows, plain (w = 1) and S2/S3, and
# its reducible loci.

_CYCLE_TYPES = {"1": (0, 1, 2), "12": (1, 0, 2), "123": (1, 2, 0)}
# coincidence pattern by (rank, index), each position labelled by the first
# position holding the same value: index 1 all equal, the last all distinct,
# rank-3 index 2 the first two equal
_PATTERNS = {(2, 1): (0, 0), (2, 2): (0, 1),
             (3, 1): (0, 0, 0), (3, 2): (0, 0, 2), (3, 3): (0, 1, 2)}


@functools.lru_cache(maxsize=None)
def twisted_torus_points(w: tuple[int, ...], q: int) -> tuple[int, tuple]:
    """(m, points): the exponent tuples mod m = q^k - 1 of the points of the
    norm-one torus of rank len(w) with x_(w(i)) = F(x_i)."""
    cycles, seen = [], set()
    for i in range(len(w)):
        if i not in seen:
            cycle = [i]
            while w[cycle[-1]] != i:
                cycle.append(w[cycle[-1]])
            seen.update(cycle)
            cycles.append(cycle)
    m = q ** math.lcm(*map(len, cycles)) - 1
    # the start of a cycle of length l is fixed by F^l: a multiple of m / (q^l - 1)
    starts = [range(0, m, m // (q ** len(cycle) - 1)) for cycle in cycles]
    points = []
    for choice in itertools.product(*starts):
        e = [0] * len(w)
        for cycle, a in zip(cycles, choice):
            for j, i in enumerate(cycle):
                e[i] = a * q ** j % m
        if sum(e) % m == 0:
            points.append(tuple(e))
    return m, tuple(points)


def twisted_torus_order(w: tuple[int, ...], q: int) -> int:
    """|T_w(F_q)|: the F_q points of the norm-one torus of rank len(w)
    twisted by w, counted from twisted_torus_points."""
    return len(twisted_torus_points(w, q)[1])


def sl_group_order(r: int, q: int) -> int:
    """|SL_r(F_q)| = |PGL_r(F_q)|: the ordered bases of F_q^r (q^r - q^i
    choices for the vector after i independent ones) over the q - 1 values
    of the determinant."""
    return math.prod(q ** r - q ** i for i in range(r)) // (q - 1)


@functools.lru_cache(maxsize=None)
def gl2_group_order(q: int) -> int:
    """|GL_2(F_q)|, by enumerating the matrices."""
    return len(gl2_elements(q))


def twisted_config_count(rank, cycle_type, src, tgt, n, q) -> int:
    """Points of the configuration stratum (src, tgt) twisted by the
    permutation of the given cycle type ("1", "12", or at rank 3 "123"):
    exponent tuples whose coincidence pattern is exactly src and whose n-th
    powers' pattern is exactly tgt (no power condition when tgt is None).
    src and tgt are pattern indices: 1 all equal, rank 3's 2 the first two
    equal, the last all distinct."""
    m, points = twisted_torus_points(_CYCLE_TYPES[cycle_type][:rank], q)
    want_src = _PATTERNS[rank, src]
    want_tgt = None if tgt is None else _PATTERNS[rank, tgt]
    count = 0
    for e in points:
        if tuple(map(e.index, e)) != want_src:
            continue
        if want_tgt is not None:
            power = tuple(n * x % m for x in e)
            if tuple(map(power.index, power)) != want_tgt:
                continue
        count += 1
    return count


def smallest_admissible_prime(rank: int, n: int) -> int:
    """The least prime q with rank*n | q - 1, where F_q holds every root of
    unity a stratum refers to.  Dirichlet's theorem puts a prime in every
    class 1 mod rank*n, so the search ends; each candidate costs a trial
    division, so it is meant for small rank*n."""
    step = rank * n
    q = step + 1
    while not all(q % d for d in range(2, math.isqrt(q) + 1)):
        q += step
    return q


def reducible_locus_count(rank: int, q: int) -> int:
    """#((T x T)/W)(F_q) = (1/|W|) sum_w #T^(wF)(F_q)^2, with T the norm-one
    torus of SL_rank and W = S_rank permuting its coordinates."""
    perms = list(itertools.permutations(range(rank)))
    total = sum(len(twisted_torus_points(w, q)[1]) ** 2 for w in perms)
    assert total % len(perms) == 0
    return total // len(perms)


def dense(terms):
    """A row of (k, P_k) terms on the twist basis as its four coefficients,
    the terms of one index summed (0 where the row has none)."""
    out = [0] * 4
    for k, p in terms:
        out[k] = out[k] + p
    return out


@functools.lru_cache(maxsize=None)
def quadratic_field(p: int, c: int) -> tuple[list[list[int]], list[list[int]]]:
    """(addition, multiplication) tables of F_(p^2) = F_p[t]/(t^2 - c), c a
    non-square mod p, whose element x0 + x1 t is the integer x0 + p x1.  Every
    nonzero element must have an inverse, or c was a square."""
    q = p * p
    add = [[(x + y) % p + p * ((x // p + y // p) % p) for y in range(q)] for x in range(q)]
    # (a + b t)(d + e t) = (ad + c be) + (ae + bd) t
    mul = [[(x % p * (y % p) + c * (x // p) * (y // p)) % p
            + p * ((x % p * (y // p) + x // p * (y % p)) % p) for y in range(q)]
           for x in range(q)]
    assert all(1 in row for row in mul[1:]), (p, c)
    return add, mul


def count_commuting_pairs_sl2_over(p: int, c: int, n: int) -> int:
    """#{(A, B) in SL_2(F_q)^2 : A^n B = B A^n} over F_q = F_p[t]/(t^2 - c),
    q = p^2, by its tables.  Every A in SL_2(F_q) is listed and raised to the
    n-th power.  A scalar A^n commutes with every B; a non-scalar M = A^n has
    the commutant {xI + yM}, whose det-1 members, x^2 + tr(M) xy + y^2 = 1,
    are counted once per trace."""
    add, mul = quadratic_field(p, c)
    q = p * p
    neg = [row.index(0) for row in add]
    inv = [None] + [row.index(1) for row in mul[1:]]
    group = []
    for a, b, c_ in itertools.product(range(q), repeat=3):
        bc = mul[b][c_]
        if a:  # d = (1 + bc) / a
            group.append((a, b, c_, mul[inv[a]][add[1][bc]]))
        elif bc == neg[1]:  # -bc = 1, any d
            group += [(0, b, c_, d) for d in range(q)]

    def times(x, y):
        a, b, c_, d = x
        e, f, g, h = y
        return (add[mul[a][e]][mul[b][g]], add[mul[a][f]][mul[b][h]],
                add[mul[c_][e]][mul[d][g]], add[mul[c_][f]][mul[d][h]])

    squares = [mul[x][x] for x in range(q)]
    by_trace: dict[int, int] = {}
    total = 0
    for x in group:
        m, power, k = (1, 0, 0, 1), x, n
        while k:
            if k & 1:
                m = times(m, power)
            power = times(power, power)
            k >>= 1
        if m[1] == m[2] == 0 and m[0] == m[3]:
            total += len(group)
            continue
        t = add[m[0]][m[3]]
        if t not in by_trace:
            by_trace[t] = sum(add[add[squares[u]][mul[t][mul[u][v]]]][squares[v]] == 1
                              for u in range(q) for v in range(q))
        total += by_trace[t]
    return total
