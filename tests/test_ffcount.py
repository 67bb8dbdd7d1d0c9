import ast
import dataclasses
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from math import prod
from pathlib import Path

import pytest

from hopfvar import ffcount
from hopfvar.ffcount import (
    FqMatrix, commutant_basis, count_commuting_det1,
    count_rep_variety_points, is_admissible,
)
from hopfvar.geom import rep_variety_epoly_formula

from _oracles import (
    class_key, commutant_dimension_by_null_space, commutant_null_space,
    commutant_unit_counts, conjugacy_class_count_sl2, count_commuting_pairs_sl2,
    count_rep_variety_points_bruteforce, factor_pattern_by_trial_division,
    linearly_independent, matrix_rank, set_based_orbits, sl_matrices,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HUGE_PRIME = 1000000000000000003


def run_python(code, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def M(q, *rows):
    # the matrix with these rows over F_q, entries reduced as FqMatrix._of expects
    return FqMatrix._of(q, tuple(tuple(x % q for x in row) for row in rows))


def _eye(rank, q):
    return M(q, *[[int(i == j) for j in range(rank)] for i in range(rank)])


def _gl_order(rank, q):
    return prod(q ** rank - q ** i for i in range(rank))


def _chis(rank, q):
    # the det-1 characteristic polynomials in ascending order, one per cyclic class
    if rank == 2:
        return [(1, c1, 1) for c1 in range(q)]
    return [(q - 1, c1, c2, 1) for c1 in range(q) for c2 in range(q)]


def _sparse(rank, q):
    # the non-cyclic classes (rank 3) as the (chi, a) _representative builds
    # them from: the eigenvalue a of J_2(a) + (a) (a^3 = 1) or diag(a, a, a^-2)
    return [(None, a) for a in range(1, q)] if rank == 3 else []


def _scalars(rank, q):
    # the scalar classes a I (a^r = 1), which the sweep counts in closed form
    # and never builds
    return [M(q, *[[a * (i == j) for j in range(rank)] for i in range(rank)])
            for a in range(1, q) if pow(a, rank, q) == 1]


def _representatives(rank, q):
    # one matrix of each GL_r(F_q)-class inside SL_r(F_q): the cyclic classes
    # in ascending chi and the non-cyclic ones as the sweep builds them, then
    # the scalars
    return ([ffcount._representative(rank, q, chi, None) for chi in _chis(rank, q)]
            + [ffcount._representative(rank, q, *cls) for cls in _sparse(rank, q)]
            + _scalars(rank, q))


def _centralizer_order(m):
    # |C_GL(M)|: the whole group for a scalar M, else by the oracle's
    # enumeration of the commutant (q^2, q^3 or q^5 members)
    rank, q = len(m.rows), m.q
    return _gl_order(rank, q) if m.is_scalar() else commutant_unit_counts(m.rows, q)[0]


def _conjugates(a):
    # |GL_r(F_q)| / |C_GL(A)|, by the oracle at rank 2 and at rank 3 up to
    # q = 7; above that the enumeration of a non-cyclic commutant costs too
    # much, and the count's table is read through the matrix typing instead
    rank, q = len(a.rows), a.q
    if rank == 3 and q > 7 and not a.is_scalar():
        return _gl_order(3, q) // ffcount._CENTRALIZERS[_matrix_type(a)](q)[0]
    return _gl_order(rank, q) // _centralizer_order(a)


def test_mat_pow():
    ident = _eye(3, 7)
    assert ident.pow(12) == ident
    invol = M(5, (4, 0), (0, 4))  # -Id, the only involution in SL2(F5)
    assert invol.pow(2) == _eye(2, 5)
    d = M(5, (3, 0), (0, 2))
    assert d.pow(4) == _eye(2, 5)
    a = M(5, (1, 0), (1, 1))
    assert a.pow(5) == _eye(2, 5)  # unipotent, order = char
    assert a.pow(3) == M(5, (1, 0), (3, 1))


def test_mat_pow_product_count(monkeypatch):
    # binary exponentiation: floor(log2 n) squarings and popcount(n) - 1
    # multiplications into the result, none after the top bit
    cases = []
    for a in (M(7, (1, 2, 3), (0, 4, 5), (6, 0, 1)), M(5, (1, 2), (3, 4))):
        powers = [a]
        for _ in range(19):
            powers.append(powers[-1] * a)
        cases.append((a, powers))
    mul, calls = FqMatrix.__mul__, []
    monkeypatch.setattr(FqMatrix, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    for a, powers in cases:
        for n in range(1, 21):
            calls.clear()
            assert a.pow(n) == powers[n - 1], n
            assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1, n


def test_char_and_min_poly():
    scalar = M(7, (2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert scalar.char_poly() == ((-8) % 7, (12) % 7, (-6) % 7, 1)


def test_commutant_dimension_examples():
    assert len(commutant_basis(M(7, (2, 0, 0), (0, 2, 0), (0, 0, 2)))) == 9
    assert len(commutant_basis(M(7, (1, 0, 0), (0, 2, 0), (0, 0, 4)))) == 3
    assert len(commutant_basis(M(5, (1, 0), (1, 1)))) == 2
    assert len(commutant_basis(M(7, (2, 0, 0), (0, 2, 0), (0, 0, 3)))) == 5


def test_commutant_dimension_exhaustive_rank2():
    for q in (3, 5):
        for entries in itertools.product(range(q), repeat=4):
            m = M(q, entries[:2], entries[2:])
            assert len(commutant_basis(m)) in (2, 4)


def test_commutant_dimension_exhaustive_rank3_q3():
    seen = set()
    for entries in itertools.product(range(3), repeat=9):
        m = M(3, entries[:3], entries[3:6], entries[6:])
        d = len(commutant_basis(m))
        assert d in (3, 5, 9)
        seen.add(d)
    assert seen == {3, 5, 9}


def test_commutant_basis_members_commute():
    # every path of commutant_basis (matrix units, powers of M, and
    # I + v-perp (x) u-perp for a non-cyclic M): every class and its powers
    # n = 1, 2, 3, 6, and random matrices; the basis must commute with m, be
    # linearly independent and have the dimension of the oracle's null space
    matrices = [a.pow(n) for rank in (2, 3) for q in (3, 5, 7, 13)
                for a in _representatives(rank, q) for n in (1, 2, 3, 6)]
    rng = random.Random(23)
    for _ in range(300):
        q = rng.choice((3, 5, 7))
        r = rng.choice((2, 3))
        matrices.append(M(q, *[[rng.randrange(q) for _ in range(r)] for _ in range(r)]))
    for m in matrices:
        basis = commutant_basis(m)
        assert all(b * m == m * b for b in basis), m
        assert linearly_independent([b.rows for b in basis], m.q), m
        assert len(basis) == commutant_dimension_by_null_space(m.rows, m.q), m


def test_commutant_basis_forms_one_product_for_cyclic_rank3(monkeypatch):
    # a cyclic rank-3 M needs M^2 for both the cyclicity test and the basis
    # I, M, M^2; it is formed once
    matrices = [a.pow(n) for q in (5, 7, 13) for a in _representatives(3, q)
                for n in (1, 2, 3)]
    cyclic = [m for m in matrices
              if not m.is_scalar() and commutant_dimension_by_null_space(m.rows, m.q) == 3]
    assert len(cyclic) > 100
    mul, calls = FqMatrix.__mul__, []
    monkeypatch.setattr(FqMatrix, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    for m in cyclic:
        calls.clear()
        assert len(commutant_basis(m)) == 3, m
        assert len(calls) == 1, m


def test_factor_pattern_matches_trial_division():
    # every det-1 characteristic polynomial of rank 2 and 3
    for q in (3, 5, 7, 11, 13, 17, 19):
        chis = [(1, -t % q, 1) for t in range(q)]
        chis += [(q - 1, s, -t % q, 1) for t in range(q) for s in range(q)]
        for chi in chis:
            assert sorted(ffcount._factor_pattern(chi, q)) == \
                factor_pattern_by_trial_division(chi, q), (chi, q)


def test_factor_pattern_of_known_factors_at_a_large_prime():
    # q = 10^9 + 7: cubics multiplied out from known factors; a scan of F_q
    # for a root would not end within the timeout
    proc = run_python(
        "from hopfvar.ffcount import _factor_pattern\n"
        "q = 10 ** 9 + 7\n"
        "d = next(d for d in range(2, q) if pow(d, (q - 1) // 2, q) == q - 1)\n"
        "def monic(*factors):\n"
        "    poly = [1]\n"
        "    for factor in factors:\n"
        "        out = [0] * (len(poly) + len(factor) - 1)\n"
        "        for i, a in enumerate(poly):\n"
        "            for j, b in enumerate(factor):\n"
        "                out[i + j] = (out[i + j] + a * b) % q\n"
        "        poly = out\n"
        "    return tuple(poly)\n"
        "def root(a):\n"
        "    return (-a % q, 1)\n"
        "cases = [\n"
        "    (monic(root(2), root(3), root(q - 5)), [(1, 1)] * 3),\n"
        "    (monic(root(123456789), root(123456789), root(987654321)), [(1, 1), (1, 2)]),\n"
        "    (monic(root(q - 42), root(q - 42), root(q - 42)), [(1, 3)]),\n"
        "    (monic(root(7), (-d % q, 0, 1)), [(1, 1), (2, 1)]),\n"
        "    (monic(root(0), (-d % q, 0, 1)), [(1, 1), (2, 1)]),\n"
        "]\n"
        "print(all(sorted(_factor_pattern(chi, q)) == p for chi, p in cases))\n",
        timeout=2)
    assert proc.stdout.strip() == "True", proc.stderr


def test_product_matches_naive_product():
    # entries given unreduced to M, which reduces them; the product reduces
    # each entry once and must equal, and hash as, the matrix of the naive product
    rng = random.Random(41)
    for q in (3, 7, 31):
        for rank in (2, 3):
            for _ in range(40):
                a, b = ([[rng.randrange(-3 * q, 3 * q) for _ in range(rank)]
                         for _ in range(rank)] for _ in range(2))
                naive = [[sum(a[i][k] * b[k][j] for k in range(rank)) % q
                          for j in range(rank)] for i in range(rank)]
                product = M(q, *a) * M(q, *b)
                assert all(0 <= x < q for row in product.rows for x in row)
                assert product == M(q, *naive), (q, a, b)
                assert hash(product) == hash(M(q, *naive)), (q, a, b)
                assert product.rows == tuple(map(tuple, naive))


def test_matrix_is_slotted_and_frozen():
    # a matrix is its field size and rows, and nothing else: two slots, no
    # __dict__, no setter, and equality, hashing and repr by those two
    m = M(7, (1, 2, 3), (4, 5, 6), (0, 1, 8))
    assert FqMatrix.__slots__ == ("q", "rows")
    assert not hasattr(m, "__dict__")
    for name, value in (("q", 11), ("rows", ((1, 0), (0, 1)))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, value)
    assert m.q == 7 and m.rows == ((1, 2, 3), (4, 5, 6), (0, 1, 1))
    for q, rows in ((7, m.rows), (5, ((2, 0), (3, 4)))):
        built = FqMatrix._of(q, rows)
        for other in (M(q, *rows), FqMatrix._of(q, rows)):
            assert built == other and hash(built) == hash(other) and repr(built) == repr(other)
        assert not hasattr(built, "__dict__")


def test_count_commuting_det1_examples():
    assert count_commuting_det1(_eye(2, 5)) == 120
    assert count_commuting_det1(M(5, (2, 0), (0, 3))) == 4
    # |SL_3(F_7)| = q^3 (q^2 - 1)(q^3 - 1)
    assert count_commuting_det1(_eye(3, 7)) == 343 * 48 * 342 == 5630688


def test_key_equal_implies_count_equal_exhaustive_q3():
    # every SL3(F3) matrix: for r <= 3 the characteristic polynomial and the
    # commutant dimension fix the conjugacy class, and matrices sharing them
    # must share the commutant count computed from scratch
    by_key: dict[tuple, int] = {}
    for rows in sl_matrices(3, 3).tolist():
        m = M(3, *rows)
        key = (m.char_poly(), len(commutant_basis(m)))
        count = count_commuting_det1(m)
        if key in by_key:
            assert by_key[key] == count, key
        else:
            by_key[key] = count
    assert len(by_key) > 1


def test_count_rep_variety_points_rank2_values():
    assert count_rep_variety_points(2, 1, 3, threads=1) == 168
    assert count_rep_variety_points(2, 1, 5, threads=1) == 1080
    assert count_rep_variety_points(2, 2, 5, threads=1) == 4560
    # inadmissible prime: raw count only, differs from the polynomial value
    assert count_rep_variety_points(2, 2, 3, threads=1) == 288


def test_count_matches_full_pair_enumeration():
    # the summed-commutant strategy against the direct (A, B) double loop
    for n, q in ((1, 3), (2, 3), (1, 5), (2, 5)):
        assert count_rep_variety_points(2, n, q, threads=1) == \
            count_commuting_pairs_sl2(q, n), (n, q)


def test_rank3_count_matches_pure_python_route():
    # independent slow route: iterate SL3(F3) with exact matrix powers and
    # per-matrix commutant counts (no vectorized classification involved)
    for n in (1, 2):
        total = sum(count_commuting_det1(M(3, *rows).pow(n))
                    for rows in sl_matrices(3, 3).tolist())
        assert count_rep_variety_points(3, n, 3, threads=1) == total, n


def test_thread_count_does_not_change_result():
    baseline = count_rep_variety_points(3, 2, 5, threads=1)
    assert count_rep_variety_points(3, 2, 5, threads=2) == baseline
    assert count_rep_variety_points(3, 2, 5, threads=5) == baseline
    two = count_rep_variety_points(2, 3, 7, threads=2)
    assert two == count_rep_variety_points(2, 3, 7, threads=1)


def test_oracle_imports_nothing_it_checks():
    # the F_q count must not share code with the polynomials it verifies
    tree = ast.parse(Path(ffcount.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # ffcount sits at the top of the package, so "." is hopfvar
            module = ".".join(filter(None, ("hopfvar" if node.level else "", node.module)))
            imported += [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported
    for name in imported:
        assert not name.startswith(("hopfvar.poly.", "hopfvar.geom.")), name
        assert name not in ("hopfvar.poly", "hopfvar.geom"), name


def test_class_sizes_sum_to_the_group_order():
    # the class representatives of the sweep cover SL_r(F_q) exactly once:
    # their characteristic polynomials end in (-1)^r det = (-1)^r, and their
    # class sizes sum to |SL_r(F_q)| = |GL_r(F_q)| / (q - 1)
    for rank in (2, 3):
        for q in (3, 5, 7, 11, 13):
            reps = _representatives(rank, q)
            assert all(a.char_poly()[0] == (-1) ** rank % q for a in reps)
            assert sum(map(_conjugates, reps)) == _gl_order(rank, q) // (q - 1), (rank, q)
        for q in (3, 5):
            assert len(sl_matrices(rank, q)) == _gl_order(rank, q) // (q - 1)


def test_centralizer_orders_match_commutant_enumeration():
    # every class at rank 2 (q = 5, 7, 13) and rank 3 (q = 5, 7), and its
    # powers n = 1, 2, 3; q = 7 is the smallest q with 3 | q-1, where the
    # SL_3-centralizer of J_3(a) carries the factor gcd(3, q-1) = 3.  A
    # rank-3 scalar has q^9 commutant members, enumerated at q = 5 only; at
    # q = 7 it is centralized by all of SL_3(F_7)
    for rank, qs in ((2, (5, 7, 13)), (3, (5, 7))):
        for q in qs:
            for a in _representatives(rank, q):
                for n in (1, 2, 3):
                    m = a.pow(n)
                    if rank == 3 and q == 7 and commutant_dimension_by_null_space(m.rows, q) == 9:
                        expected = _gl_order(3, q) // (q - 1)
                    else:
                        expected = commutant_unit_counts(m.rows, q)[1]
                    assert count_commuting_det1(m) == expected, (a, n)


def test_centralizer_orders_of_conjugates_match_commutant_enumeration():
    # count_commuting_det1 types any matrix through its commutant basis, not
    # only the rational canonical forms of the sweep: a random GL_r(F_q)
    # conjugate g A g^-1 of every class representative; g is invertible iff
    # the constant term of its characteristic polynomial, (-1)^r det g, is not 0
    rng = random.Random(29)
    for rank, q in ((2, 5), (2, 7), (3, 5)):
        for a in _representatives(rank, q):
            while True:
                g = M(q, *[[rng.randrange(q) for _ in range(rank)] for _ in range(rank)])
                if g.char_poly()[0]:
                    break
            b = g * a * g.pow(_gl_order(rank, q) - 1)
            assert count_commuting_det1(b) == commutant_unit_counts(b.rows, q)[1], (a, b)


def test_centralizer_table_has_one_row_per_type_met():
    # the (factor pattern, cyclic) types of every non-scalar class and its
    # powers n = 1, 2, 3 at ranks 2 and 3, q = 5, 7, 13 (3 | q - 1 at 7 and
    # 13, not at 5): no row of the table is dead and no type is missing, and
    # each row matches the oracle's enumeration of the commutant
    met = set()
    for rank in (2, 3):
        for q in (5, 7, 13):
            for a in _representatives(rank, q):
                for n in (1, 2, 3):
                    m = a.pow(n)
                    if m.is_scalar():
                        continue
                    cyclic = commutant_dimension_by_null_space(m.rows, q) == rank
                    key = ffcount._factor_pattern(m.char_poly(), q), cyclic
                    met.add(key)
                    units, det1 = commutant_unit_counts(m.rows, q)
                    assert ffcount._CENTRALIZERS[key](q) == (units, units // det1), (m, key)
    assert met == set(ffcount._CENTRALIZERS)
    assert len(met) == 10


def test_count_commuting_det1_types_through_one_commutant_basis(monkeypatch):
    # the call shape the benchmark's per-layer commutant metrics read:
    # count_commuting_det1 looks commutant_basis up on the module and calls
    # it once for a non-scalar M, and never for a scalar M, which it tests
    # for first
    basis, calls = ffcount.commutant_basis, []
    monkeypatch.setattr(ffcount, "commutant_basis", lambda m: calls.append(m) or basis(m))
    for rank in (2, 3):
        for q in (5, 7):
            for a in _representatives(rank, q):
                for n in (1, 2, 3):
                    m = a.pow(n)
                    calls.clear()
                    count_commuting_det1(m)
                    assert calls == ([] if m.is_scalar() else [m]), (a, n)


def _matrix_type(m):
    # the GL type of a matrix by the package's matrix typing: None for a
    # scalar, else its factor pattern and whether it is cyclic
    if m.is_scalar():
        return None
    return ffcount._factor_pattern(m.char_poly(), m.q), len(commutant_basis(m)) == len(m.rows)


def _recording_visits(monkeypatch):
    # the classes the sweep types, in order, by its calls of _power_type,
    # looked up on the module: (chi, None) for a visited cyclic class,
    # (None, a) for a non-cyclic class with eigenvalue a
    visits, power_type = [], ffcount._power_type
    monkeypatch.setattr(ffcount, "_power_type", lambda q, chi, a_type, a, n: visits.append(
        (chi, a)) or power_type(q, chi, a_type, a, n))
    return visits


def _cyclic_orbits(rank, q):
    # {chi: orbit} over the cyclic classes the walk visits
    return {chi: orbit for orbit, chi, a in ffcount._classes(rank, q) if a is None}


def test_sweep_counts_each_type_of_the_power_once(monkeypatch):
    # the sweep looks count_commuting_det1 up on the module and calls it once
    # per non-scalar GL type of A^n met over all classes (the orbit maps keep
    # it), each time on A.pow(n) of a different class, and never on a scalar
    # matrix: a scalar A^n is centralized by all of SL_r(F_q), in closed form,
    # and a scalar A is never built or powered
    powers, calls = [], []
    pow_, count = FqMatrix.pow, ffcount.count_commuting_det1
    monkeypatch.setattr(FqMatrix, "pow",
                        lambda a, n: powers.append((a, n, pow_(a, n))) or powers[-1][2])
    monkeypatch.setattr(ffcount, "count_commuting_det1", lambda m: calls.append(m) or count(m))
    for rank in (2, 3):
        for q in (5, 7, 13):
            reps = _representatives(rank, q)
            for n in (1, 2, 3):
                types = {_matrix_type(pow_(a, n)) for a in reps} - {None}
                powers.clear()
                calls.clear()
                count_rep_variety_points(rank, n, q)
                assert len(calls) == len(powers) == len(types), (rank, n, q)
                assert not any(m.is_scalar() for m in calls), (rank, n, q)
                assert not any(a.is_scalar() for a, _, _ in powers), (rank, n, q)
                assert all(m is power and e == n for m, (_, e, power) in zip(calls, powers))
                assert {_matrix_type(m) for m in calls} == types, (rank, n, q)
                assert len({a for a, _, _ in powers}) == len(powers), (rank, n, q)


def test_sweep_types_each_visited_class_once(monkeypatch):
    # the sweep factors the chi of each visited cyclic class once, and the
    # chi of its power read off x^n mod chi once more unless A^n is scalar or
    # A itself (always at n = 1); a non-cyclic class is typed from its
    # eigenvalue and a scalar not at all, so neither is factored; then each
    # matrix it counts, one per non-scalar type of A^n, is factored once more,
    # after the walk and in the order counted
    factor, patterns = ffcount._factor_pattern, []
    monkeypatch.setattr(ffcount, "_factor_pattern",
                        lambda chi, q: patterns.append(chi) or factor(chi, q))
    count, counted = ffcount.count_commuting_det1, []
    monkeypatch.setattr(ffcount, "count_commuting_det1", lambda m: counted.append(m) or count(m))
    visits = _recording_visits(monkeypatch)
    for rank in (2, 3):
        for q in (5, 7, 13):
            for n in (1, 2, 3):
                patterns.clear()
                counted.clear()
                visits.clear()
                count_rep_variety_points(rank, n, q)
                expected = []
                for chi, x in visits:
                    if x is not None:
                        continue
                    a = ffcount._representative(rank, q, chi, None)
                    power = a.pow(n)
                    expected.append(a.char_poly())
                    if not power.is_scalar() and power != a:
                        expected.append(power.char_poly())
                assert counted and not any(m.is_scalar() for m in counted), (rank, q, n)
                expected += [m.char_poly() for m in counted]
                assert patterns == expected, (rank, q, n)


def test_sweep_builds_only_visited_sparse_classes(monkeypatch):
    # a non-cyclic class is kept as its eigenvalue, and a scalar is never
    # built; the sweep builds one matrix per non-scalar type of A^n, of a
    # cyclic class it visited or a non-cyclic class, whose power it counts
    # (at n = 1, A itself), so fewer than there are non-cyclic classes
    build, built = ffcount._representative, []
    monkeypatch.setattr(ffcount, "_representative", lambda rank, q, chi, a:
                        built.append((chi is None, build(rank, q, chi, a))) or built[-1][1])
    count, calls = ffcount.count_commuting_det1, []
    monkeypatch.setattr(ffcount, "count_commuting_det1", lambda m: calls.append(m) or count(m))
    visits = _recording_visits(monkeypatch)
    for rank in (2, 3):
        for q in (5, 7, 13):
            sparse = _sparse(rank, q)
            for n in (1, 2):
                built.clear()
                calls.clear()
                visits.clear()
                count_rep_variety_points(rank, n, q)
                visited = {(False, build(rank, q, chi, None)) for chi, a in visits if a is None}
                visited |= {(True, build(rank, q, *cls)) for cls in sparse}
                assert len(built) == len(calls) == len({_matrix_type(m) for m in calls})
                assert set(built) <= visited, (rank, q, n)
                assert all(m == a.pow(n) for (_, a), m in zip(built, calls)), (rank, q, n)
                assert not any(a.is_scalar() for _, a in built), (rank, q, n)
                if n == 1:
                    assert all(m is a for (_, a), m in zip(built, calls)), (rank, q)
                    non_cyclic = sum(is_sparse for is_sparse, _ in built)
                    assert non_cyclic == sum(len(commutant_basis(a)) > rank for a in calls), \
                        (rank, q)
                    assert 0 < non_cyclic < len(sparse) if rank == 3 else non_cyclic == 0, (rank, q)


def test_power_types_match_matrix_typing_exhaustive():
    # every non-scalar class A at q = 5, 7, 13 (J_2(a) + (a) at q | n among
    # them) and n = 1..6: the type of A^n that the sweep reads off
    # x^n mod chi, or off a for the non-cyclic kind, without a matrix, equals
    # the type of the matrix A.pow(n) by the oracle's null space and trial
    # division
    for rank in (2, 3):
        for q in (5, 7, 13):
            # all but the scalars, which the sweep counts in closed form
            classes = [(chi, None) for chi in _chis(rank, q)] + _sparse(rank, q)
            for cls in classes:
                a = ffcount._representative(rank, q, *cls)
                dim, chi = class_key(a.rows, q)
                a_type = ffcount._factor_pattern(chi, q), dim == rank
                for n in range(1, 7):
                    got = ffcount._power_type(q, chi, a_type, cls[1], n)
                    dim, chi_n = class_key(a.pow(n).rows, q)
                    expected = ((None, False) if dim == rank * rank else
                                (factor_pattern_by_trial_division(chi_n, q), dim == rank))
                    assert (got[0] and sorted(got[0]), got[1]) == expected, (a, n)


def test_sweep_matches_bruteforce_oracle():
    points = [(2, n, q) for q in (3, 5, 7) for n in (1, 2, 3)]
    points += [(3, n, q) for q in (3, 5) for n in (1, 2, 3)]
    for rank, n, q in points:
        assert count_rep_variety_points(rank, n, q) == \
            count_rep_variety_points_bruteforce(rank, n, q), (rank, n, q)


def _plain_class_sums(rank, q, ns):
    # the class equation without orbits: every class representative once
    reps = [(a, _conjugates(a)) for a in _representatives(rank, q)]
    return {n: sum(size * count_commuting_det1(a.pow(n)) for a, size in reps) for n in ns}


def test_orbit_sweep_matches_plain_class_sum():
    # rank 3 at q = 7, 13, 19, where the cube roots of unity are nontrivial
    # and orbits have up to 6 classes; n <= 6, admissible or not.  The plain
    # sum powers a.pow(n) directly, so a huge n at q = 5 and 7 checks that
    # the sweep's reduction of n mod |GL_r(F_q)| is exact.
    ns = range(1, 7)
    for rank, qs in ((2, (5, 7, 11, 13)), (3, (7, 13, 19))):
        for q in qs:
            plain = _plain_class_sums(rank, q, ns)
            for n in ns:
                assert count_rep_variety_points(rank, n, q) == plain[n], (rank, n, q)
    huge = 10 ** 50 + 3
    for rank, q in ((2, 5), (2, 7), (3, 5), (3, 7)):
        assert count_rep_variety_points(rank, huge, q) == \
            _plain_class_sums(rank, q, [huge])[huge], (rank, q)


def test_exponent_a_multiple_of_the_group_order_counts_every_pair():
    # A^n = I for every A when |GL_r(F_q)| divides n, so every pair commutes:
    # the count is |SL_r(F_q)|^2.  n reduces to 0 mod the order, which the
    # sweep must keep at the order itself, not at any smaller exponent
    for rank in (2, 3):
        for q in (3, 5, 7):
            gl = prod(q ** rank - q ** i for i in range(rank))
            sl = gl // (q - 1)
            for k in (1, 3):
                assert count_rep_variety_points(rank, k * gl, q) == sl * sl, (rank, q, k)


def test_orbit_sweep_visits_one_class_per_orbit(monkeypatch):
    # (3, 1, 7): the 49 cyclic classes fall into 12 orbits of A -> zA
    # (z^3 = 1), A -> A^-1, each of the 6 non-cyclic classes is typed once,
    # and count_commuting_det1 runs once per type of A^n met, fewer still
    count, calls = ffcount.count_commuting_det1, []
    monkeypatch.setattr(ffcount, "count_commuting_det1",
                        lambda m: calls.append(m) or count(m))
    visits = _recording_visits(monkeypatch)
    assert count_rep_variety_points(3, 1, 7) == rep_variety_epoly_formula(3, 1).evaluate(7)
    assert len(_representatives(3, 7)) == 58
    assert [a is None for _, a in visits] == [True] * 12 + [False] * 6
    assert [a for _, a in visits if a is not None] == list(range(1, 7))
    assert len(calls) <= 12


def test_orbit_representatives_match_set_based_orbits():
    # The cyclic pass visits one class per orbit with the number of classes
    # in it: they must be the least class and the size of each set-based
    # orbit of the cyclic classes, and at n = 1 the count must be the sum of
    # orbit size x class size x commutant count over them, plus class size
    # x commutant count over every non-cyclic and scalar class.
    for rank in (2, 3):
        for q in (5, 7, 13):
            total = count_rep_variety_points(rank, 1, q)
            orbits, expected_total = {}, 0
            for chi, orbit in _cyclic_orbits(rank, q).items():
                a = ffcount._representative(rank, q, chi, None)
                orbits[class_key(a.rows, q)] = orbit
                expected_total += orbit * _conjugates(a) * count_commuting_det1(a)
            cyclic = [ffcount._representative(rank, q, chi, None) for chi in _chis(rank, q)]
            assert orbits == set_based_orbits([a.rows for a in cyclic], q), (rank, q)
            expected_total += sum(_conjugates(a) * count_commuting_det1(a)
                                  for a in _representatives(rank, q)[len(cyclic):])
            assert total == expected_total, (rank, q)


def test_class_weights_per_kind_sum_to_the_class_numbers(monkeypatch):
    # the histogram the count folds: the weights of the classes the walk
    # yields, typed by the count, sum to q^(r-1) cyclic classes and q - 1
    # non-cyclic ones at rank 3, and the count adds the gcd(r, q - 1)
    # scalars in closed form, each centralized by all of SL_r(F_q): the count
    # less the visited classes' share is that many times |SL_r(F_q)|
    walk, visited = ffcount._classes, []
    monkeypatch.setattr(ffcount, "_classes",
                        lambda rank, q: (visited.append(c) or c for c in walk(rank, q)))
    power_type, types = ffcount._power_type, []
    monkeypatch.setattr(ffcount, "_power_type", lambda q, chi, a_type, a, n: types.append(
        a_type) or power_type(q, chi, a_type, a, n))
    for rank in (2, 3):
        for q in (3, 5, 7, 13, 17, 31):
            sizes = {}
            for n in (1, 2, 3, q):
                visited.clear()
                types.clear()
                total = count_rep_variety_points(rank, n, q)
                totals, share = {}, 0
                for (weight, chi, a), (_, cyclic) in zip(visited, types, strict=True):
                    kind = "cyclic" if cyclic else "non-cyclic"
                    totals[kind] = totals.get(kind, 0) + weight
                    m = ffcount._representative(rank, q, chi, a)
                    if m not in sizes:
                        sizes[m] = _conjugates(m)
                    share += weight * sizes[m] * count_commuting_det1(m.pow(n))
                scalars, rest = divmod(total - share, _gl_order(rank, q) // (q - 1))
                assert rest == 0, (rank, n, q)
                totals["scalar"] = scalars
                expected = {"cyclic": q ** (rank - 1),
                            "scalar": sum(pow(a, rank, q) == 1 for a in range(1, q))}
                if rank == 3:
                    expected["non-cyclic"] = q - 1
                assert totals == expected, (rank, n, q)


def _oracle_type(m):
    # the GL type of a matrix by the oracle's null space and trial division,
    # the factor pattern sorted, and (None, False) for a scalar
    rank, q = len(m.rows), m.q
    dim, chi = class_key(m.rows, q)
    if dim == rank * rank:
        return None, False
    return factor_pattern_by_trial_division(chi, q), dim == rank


def test_sparse_class_types_match_matrix_typing(monkeypatch):
    # the closed-form types of every non-cyclic class A, from its eigenvalue
    # a, and of A^n, which the count passes to and takes from _power_type,
    # equal the oracle's typing of the matrices; q = 5 and 17 have no cube
    # root of unity but 1, and n = q, 2q make the power of J_2(a) + (a) scalar
    visits, power_type = [], ffcount._power_type
    monkeypatch.setattr(ffcount, "_power_type", lambda q, chi, a_type, a, n: visits.append(
        (a, a_type, power_type(q, chi, a_type, a, n))) or visits[-1][2])
    for q in (5, 7, 13, 17):
        for n in (*range(1, 7), q, 2 * q):
            visits.clear()
            count_rep_variety_points(3, n, q)
            sparse = [(a, a_type, got) for a, a_type, got in visits if a is not None]
            assert [a for a, _, _ in sparse] == list(range(1, q)), (n, q)
            for a, a_type, got in sparse:
                m = ffcount._representative(3, q, None, a)
                for typed, matrix in ((a_type, m), (got, m.pow(n))):
                    assert (typed[0] and sorted(typed[0]), typed[1]) == _oracle_type(matrix), \
                        (a, n, q)


def test_orbit_flags_keep_count_memory_small():
    # one flag byte per class and kind: about 23 KB at q = 151, where a set
    # of visited characteristic polynomials would take several MB
    count_rep_variety_points(3, 1, 7)
    tracemalloc.start()
    try:
        count_rep_variety_points(3, 1, 151)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000, peak


def test_orbit_maps_keep_class_size_and_commutant():
    # the invariance the orbit sum rests on: zA (z^r = 1) and A^-1 have the
    # class size of A, |C_GL| by the oracle's enumeration, and their n-th
    # powers the SL-centralizer order of A^n
    for rank, qs in ((2, (5, 7, 13)), (3, (7, 13))):
        for q in qs:
            ident = _eye(rank, q)
            group_order = _gl_order(rank, q)
            roots = [z for z in range(1, q) if pow(z, rank, q) == 1]
            for a in _representatives(rank, q):
                inverse = a.pow(group_order - 1)
                assert a * inverse == ident, a
                images = [M(q, *[[z * x for x in row] for row in a.rows]) for z in roots]
                order = _centralizer_order(a)
                for b in images + [inverse]:
                    assert _centralizer_order(b) == order, (a, b)
                    for n in (1, 2, 3):
                        assert count_commuting_det1(b.pow(n)) == \
                            count_commuting_det1(a.pow(n)), (a, b, n)


def test_rank3_counts_beyond_q7():
    for n, q in ((1, 13), (2, 13), (3, 19), (1, 31), (5, 31), (20, 61)):
        assert count_rep_variety_points(3, n, q) == \
            rep_variety_epoly_formula(3, n).evaluate(q), (n, q)


def test_rank3_count_at_n1_is_the_class_number_times_the_group_order():
    # the commuting pairs of a finite group G number |G| k(G), and
    # k(SL_3(F_q)) = q^2 + q + 8 [3 | q - 1] (Simpson-Frame 1973): an oracle
    # for the n = 1 sweep that shares nothing with it but the counter
    for q in (3, 5, 7, 11, 13, 17, 19, 31, 37, 61, 97):
        order = q ** 3 * (q * q - 1) * (q ** 3 - 1)
        classes = q * q + q + 8 * ((q - 1) % 3 == 0)
        assert count_rep_variety_points(3, 1, q) == order * classes, q


def test_rank2_count_at_n1_is_the_class_number_times_the_group_order():
    # k(SL_2(F_q)) = q + 4 for odd q: the commuting pairs of SL_2(F_q) number
    # q(q^2 - 1)(q + 4), an oracle that shares nothing with the sweep
    for q in (3, 5, 7, 11, 13, 17, 19, 31, 37, 61, 97, 1009, 10007):
        assert count_rep_variety_points(2, 1, q) == q * (q * q - 1) * (q + 4), q
    for q in (3, 5, 7):
        assert conjugacy_class_count_sl2(q) == q + 4, q


def test_admissibility():
    assert is_admissible(2, 1, 3)
    assert is_admissible(2, 2, 13)
    assert not is_admissible(2, 2, 7)
    assert is_admissible(3, 1, 7)
    assert not is_admissible(3, 1, 5)
    assert is_admissible(3, 2, 13)
    # rank*n | q-1 suffices: 3n | q-1 here while 6n does not
    assert is_admissible(3, 2, 7)
    assert count_rep_variety_points(3, 2, 7) == rep_variety_epoly_formula(3, 2).evaluate(7)


def test_input_validation():
    with pytest.raises(ValueError):
        count_rep_variety_points(2, 1, 4)
    with pytest.raises(ValueError):
        count_rep_variety_points(2, 1, 9)
    with pytest.raises(ValueError):
        count_rep_variety_points(2, 1, 2)
    with pytest.raises(ValueError):
        count_rep_variety_points(4, 1, 5)
    with pytest.raises(ValueError):
        count_rep_variety_points(2, 0, 5)


def test_class_budget_boundary(monkeypatch):
    # the sweep visits q^(rank-1) classes; 641^2 and 400009 exceed the budget
    # of 400000, and the refusal comes before any class is visited
    for rank, q in ((3, 641), (2, 400009)):
        with pytest.raises(ValueError, match="ceiling"):
            count_rep_variety_points(rank, 1, q)
    # q^2 = 49 fits a budget of 49, 121 does not
    monkeypatch.setattr(ffcount, "MAX_CLASSES", 49)
    assert count_rep_variety_points(3, 1, 7) == rep_variety_epoly_formula(3, 1).evaluate(7)
    with pytest.raises(ValueError, match="ceiling"):
        count_rep_variety_points(3, 1, 11)


def test_huge_field_is_refused_by_its_digits():
    # q = 10^3000 + 1: q^2 has 6,001 digits, past the interpreter's int -> str
    # limit, so the class ceiling names its digit count, not its value
    for rank, digits in ((2, 3001), (3, 6001)):
        with pytest.raises(ValueError) as err:
            count_rep_variety_points(rank, 1, 10 ** 3000 + 1)
        assert str(err.value) == (f"q^{rank - 1} = <integer of {digits} digits> classes "
                                  f"exceeds the class ceiling {ffcount.MAX_CLASSES}")


def test_field_checked_once_per_count(monkeypatch):
    is_prime, calls = ffcount.is_prime, []

    def counting_is_prime(q):
        calls.append(q)
        return is_prime(q)

    monkeypatch.setattr(ffcount, "is_prime", counting_is_prime)
    assert count_rep_variety_points(3, 1, 7) == \
        rep_variety_epoly_formula(3, 1).evaluate(7)
    assert calls == [7]


@pytest.mark.parametrize("call", [lambda q: count_rep_variety_points(2, 1, q)],
                         ids=["count_rep_variety_points"])
@pytest.mark.parametrize("q", (7.0, True, "7", None))
def test_field_size_must_be_an_int(monkeypatch, call, q):
    # refused before is_prime, which would take 7.0 for the prime 7, and
    # before the class ceiling, which cannot raise "7" or None to a power
    monkeypatch.setattr(ffcount, "is_prime", None)
    with pytest.raises(ValueError) as err:
        call(q)
    assert str(err.value) == f"q must be an odd prime, got {q!r}"


def test_is_prime_matches_a_sieve():
    limit = 10 ** 5
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for p in range(2, 317):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    assert [q for q in range(limit) if ffcount.is_prime(q)] == \
        [q for q in range(limit) if sieve[q]]


@pytest.mark.parametrize("q, factors", [
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the first nine primes
    (3215031751, (151, 751, 28351)),
    (3825123056546413051, (149491, 747451, 34233211)),
])
def test_is_prime_rejects_strong_pseudoprimes(q, factors):
    assert prod(factors) == q
    assert not ffcount.is_prime(q)


def test_large_field_answered_in_bounded_time():
    # 10^20 + 39 is prime, 3 divides 10^20 + 41, and 10^30 + 57 lies above
    # the bound of exact primality, so it is refused; trial division of the
    # first would not end within the timeout
    proc = run_python(
        "import time\n"
        "from hopfvar.ffcount import _check_field\n"
        "started = time.perf_counter()\n"
        "print(_check_field(10 ** 20 + 39) is None)\n"
        "for q in (10 ** 20 + 41, 10 ** 30 + 57):\n"
        "    try:\n"
        "        _check_field(q)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "print(time.perf_counter() - started < 1)\n", timeout=30)
    lines = proc.stdout.splitlines()
    assert len(lines) == 4, proc.stderr
    assert lines[0] == lines[3] == "True"
    assert "odd prime" in lines[1] and "not below" in lines[2], lines


def test_commutant_basis_closed_form_matches_null_space():
    # the closed forms for scalar (matrix units) and non-cyclic rank-3 M
    # (I and v-perp (x) u-perp for M - aI = u v^T): every scalar and
    # non-cyclic 3x3 matrix over F_3, and conjugates of diag(a, a, b) and
    # J_2(a) + (a) by random GL_3 elements at q = 5, 7, 13
    matrices = []
    for entries in itertools.product(range(3), repeat=9):
        rows = (entries[:3], entries[3:6], entries[6:])
        square = [[sum(rows[i][k] * rows[k][j] for k in range(3)) % 3 for j in range(3)]
                  for i in range(3)]
        # scalar or non-cyclic: M^2 = alpha M + beta I for some alpha, beta
        if any(all(square[i][j] == (alpha * rows[i][j] + beta * (i == j)) % 3
                   for i in range(3) for j in range(3))
               for alpha in range(3) for beta in range(3)):
            matrices.append(M(3, *rows))
    # 3 scalars, 702 conjugates of diag(a, a, b) and 312 of J_2(a) + (a)
    assert len(matrices) == 1017
    rng = random.Random(59)
    for q in (5, 7, 13):
        for _ in range(60):
            a, b = rng.randrange(q), rng.randrange(q)
            core = rng.choice([((a, 0, 0), (0, a, 0), (0, 0, b)),
                               ((a, 1, 0), (0, a, 0), (0, 0, a))])
            while True:
                g = M(q, *[[rng.randrange(q) for _ in range(3)] for _ in range(3)])
                if g.char_poly()[0]:
                    break
            g_inv = g.pow(prod(q ** 3 - q ** i for i in range(3)) - 1)
            matrices.append(g * M(q, *core) * g_inv)
    for m in matrices:
        basis = commutant_basis(m)
        null_space = commutant_null_space(m.rows, m.q)
        assert len(null_space) in (5, 9), m
        assert all(b * m == m * b for b in basis), m
        assert linearly_independent([b.rows for b in basis], m.q), m
        # the same span: as many members, and stacking adds no rank
        assert len(basis) == len(null_space), m
        assert matrix_rank([b.rows for b in basis] + list(null_space), m.q) == len(basis), m


def test_is_scalar_matches_entrywise_definition():
    # every rank-2 and rank-3 matrix over F_3, the zero matrix included
    for rank in (2, 3):
        for entries in itertools.product(range(3), repeat=rank * rank):
            rows = [entries[i * rank:(i + 1) * rank] for i in range(rank)]
            expected = all(x == (rows[0][0] if i == j else 0)
                           for i, row in enumerate(rows) for j, x in enumerate(row))
            assert M(3, *rows).is_scalar() == expected, rows


def test_sweep_representatives_have_reduced_entries():
    # the sweep builds representatives without re-reducing their entries
    for rank in (2, 3):
        for q in (3, 5, 7, 13):
            for m in _representatives(rank, q):
                assert m == M(q, *m.rows), (rank, q, m)


def test_huge_q_refused_before_primality():
    # the class ceiling refuses an 18-digit prime before any primality test
    proc = run_python(
        "from hopfvar.ffcount import count_rep_variety_points\n"
        "try:\n"
        f"    count_rep_variety_points(2, 1, {HUGE_PRIME})\n"
        "except ValueError as exc:\n"
        "    print('refused' if 'ceiling' in str(exc) else exc)\n", timeout=2)
    assert proc.stdout.strip() == "refused", proc.stderr


def test_import_leaves_numpy_unloaded():
    proc = run_python(
        "import contextlib, io, sys\n"
        "import hopfvar\n"
        "from hopfvar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['rep', '--rank', '3', '--n', '2', '--method', 'both'])\n"
        "    main(['char', '--rank', '3', '--n', '2', '--pieces'])\n"
        "    main(['table', '--rank', '2', '--n', '1..3', '--target', 'rep'])\n"
        "    main(['count', '--rank', '3', '--n', '1', '--q', '7', '--assert'])\n"
        "print('numpy' in sys.modules)\n", timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr
