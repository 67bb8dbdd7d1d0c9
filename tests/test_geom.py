import pytest

from hopfvar.poly import ONE, ZERO, Poly, Q, general_linear_epoly, special_linear_epoly
from hopfvar.repring import S2Elem, S3Elem
from hopfvar import geom
from hopfvar.geom import (
    J2_BLOCK, J2_DISTINCT, J2_SCALAR, J3_DISTINCT, J3_EQUAL_B21, J3_EQUAL_B3,
    J3_PAIR_B2, J3_PAIR_DIAG, J3_SCALAR, JordanType, Stratum,
    admissible_strata, pgl_mod_stab_epoly, rep_variety_epoly_formula,
    rep_variety_epoly_strata, stabilizer_epoly, stratum_epoly,
)

from _oracles import (
    count_commuting_pairs_sl2_over, dense, gl2_group_order, sl_group_order, twisted_torus_order,
)

E_SL2 = special_linear_epoly(2)
E_SL3 = special_linear_epoly(3)
HUGE_NS = (10 ** 18, 10 ** 18 + 1)


def test_jordan_type_validation():
    with pytest.raises(ValueError):
        JordanType(2, 4)
    with pytest.raises(ValueError):
        JordanType(3, 7)
    with pytest.raises(ValueError):
        JordanType(4, 1)


def test_jordan_type_partitions():
    assert J2_SCALAR.partition.index == 1 and J2_BLOCK.partition.index == 1
    assert J2_DISTINCT.partition.index == 2
    assert [JordanType(3, i).partition.index for i in range(1, 7)] == [1, 1, 1, 2, 2, 3]


def test_stabilizer_epolys():
    assert stabilizer_epoly(J2_SCALAR) == E_SL2
    assert stabilizer_epoly(J2_BLOCK) == 2 * Q
    assert stabilizer_epoly(J2_DISTINCT) == Q - 1
    assert stabilizer_epoly(J3_SCALAR) == E_SL3
    assert stabilizer_epoly(J3_EQUAL_B21) == (Q - 1) * Q ** 3
    assert stabilizer_epoly(J3_EQUAL_B3) == 3 * Q ** 2
    assert stabilizer_epoly(J3_PAIR_DIAG) == Q ** 4 - Q ** 3 - Q ** 2 + Q
    assert stabilizer_epoly(J3_PAIR_B2) == Q * (Q - 1)
    assert stabilizer_epoly(J3_DISTINCT) == (Q - 1) ** 2


def test_pgl_mod_stab_epolys():
    assert pgl_mod_stab_epoly(J2_SCALAR) == ONE
    assert pgl_mod_stab_epoly(J2_BLOCK) == Q ** 2 - 1
    assert pgl_mod_stab_epoly(J2_DISTINCT) == Q ** 2 + Q
    assert pgl_mod_stab_epoly(J3_SCALAR) == ONE
    assert pgl_mod_stab_epoly(J3_EQUAL_B21) == (Q ** 3 - 1) * (Q + 1)
    assert pgl_mod_stab_epoly(J3_EQUAL_B3) == (Q ** 3 - 1) * (Q ** 2 - 1) * Q
    assert pgl_mod_stab_epoly(J3_PAIR_DIAG) == (Q ** 2 + Q + 1) * Q ** 2
    assert pgl_mod_stab_epoly(J3_PAIR_B2) == (Q ** 3 - 1) * (Q ** 3 + Q ** 2)
    assert pgl_mod_stab_epoly(J3_DISTINCT) == Q ** 6 + 2 * Q ** 5 + 2 * Q ** 4 + Q ** 3


def test_orbit_times_stabilizer_fills_the_group():
    # orbit x stabilizer multiplies back to e(PGL_r) = e(SL_r)
    for xi in (J2_SCALAR, J2_BLOCK, J2_DISTINCT):
        assert pgl_mod_stab_epoly(xi) * stabilizer_epoly(xi) == \
            (2 if xi == J2_BLOCK else 1) * E_SL2
    assert pgl_mod_stab_epoly(J3_DISTINCT) * stabilizer_epoly(J3_DISTINCT) == E_SL3
    assert pgl_mod_stab_epoly(J3_EQUAL_B21) * stabilizer_epoly(J3_EQUAL_B21) == E_SL3
    assert pgl_mod_stab_epoly(J3_EQUAL_B3) * stabilizer_epoly(J3_EQUAL_B3) == 3 * E_SL3
    assert pgl_mod_stab_epoly(J3_PAIR_DIAG) * stabilizer_epoly(J3_PAIR_DIAG) == E_SL3
    assert pgl_mod_stab_epoly(J3_PAIR_B2) * stabilizer_epoly(J3_PAIR_B2) == E_SL3


def test_equivariant_pieces():
    orbit, stab = geom._EQUIVARIANT[J3_DISTINCT, "s3"]
    assert orbit == S3Elem(Q ** 6, Q ** 3, Q ** 5 + Q ** 4)
    assert stab == S3Elem(Q ** 2, 1, -Q)
    orbit2, _stab2 = geom._EQUIVARIANT[J3_DISTINCT, "s2"]
    assert orbit2 == S2Elem(Q ** 6 + Q ** 5 + Q ** 4, Q ** 5 + Q ** 4 + Q ** 3)
    orbit3, stab3 = geom._EQUIVARIANT[J2_DISTINCT, "s2"]
    assert orbit3 == S2Elem(Q ** 2, Q)
    assert stab3 == S2Elem(Q, -1)
    # no stratum reads the orbit of a target-only type, nor the stabilizer of
    # the distinct type under s2
    assert geom._EQUIVARIANT[J3_SCALAR, "s3"] == (None, S3Elem(E_SL3))
    assert geom._EQUIVARIANT[J3_PAIR_DIAG, "s2"] == (None, S2Elem(general_linear_epoly(2)))
    assert geom._EQUIVARIANT[J3_DISTINCT, "s2"][1] is None


def test_equivariant_pieces_dims_match_plain():
    for (xi, group), (orbit, stab) in geom._EQUIVARIANT.items():
        assert orbit is None or orbit.dim() == pgl_mod_stab_epoly(xi), (xi, group)
        assert stab is None or stab.dim() == stabilizer_epoly(xi), (xi, group)


def test_equivariant_pieces_are_exactly_those_a_stratum_reads():
    # a grouped stratum i -> j reads the orbit (slot 0) of type i and the
    # stabilizer (slot 1) of type j under its group, and no other piece is kept
    read = {(JordanType(rank, k), group, slot) for rank, rows in geom._STRATA.items()
            for i, j, group in rows if group for slot, k in enumerate((i, j))}
    kept = {(xi, group, slot) for (xi, group), pieces in geom._EQUIVARIANT.items()
            for slot, piece in enumerate(pieces) if piece is not None}
    assert kept == read


# Lang's theorem gives each equivariant piece as characters of its group:
# the class at w is the F_q count of the piece's variety with Frobenius
# twisted by w, which is |T_w| for the torus stabilizer, |SL_r| / |T_w| for
# the orbit SL_r / T, and the plain order for a connected stabilizer, which
# no inner twist changes.  Seven primes fix a polynomial of degree <= 6.
LANG_PRIMES = (3, 5, 7, 11, 13, 17, 19)
# each group's permutations w of its rank's torus coordinates, one per class
LANG_WS = {("s2", 2): ((0, 1), (1, 0)), ("s2", 3): ((0, 1, 2), (1, 0, 2)),
           ("s3", 3): ((0, 1, 2), (1, 0, 2), (1, 2, 0))}


def _character(x, w):
    # S2: t + n at 1, t - n at a transposition; S3: t + s + 2d, t - s and
    # t + s - d at w fixing 3, 1 and 0 points
    fixed = sum(i == j for i, j in enumerate(w))
    if isinstance(x, S2Elem):
        return x.t + x.n if fixed == len(w) else x.t - x.n
    return {3: x.t + x.s + 2 * x.d, 1: x.t - x.s, 0: x.t + x.s - x.d}[fixed]


def _orbit_count(w, q):
    group, torus = sl_group_order(len(w), q), twisted_torus_order(w, q)
    assert group % torus == 0, (w, q)
    return group // torus


# (type, group, slot) -> the Lang count at (w, q) of that piece
LANG_COUNTS = {
    (J2_DISTINCT, "s2", 0): _orbit_count,
    (J2_DISTINCT, "s2", 1): twisted_torus_order,
    (J3_DISTINCT, "s3", 0): _orbit_count,
    (J3_DISTINCT, "s3", 1): twisted_torus_order,
    (J3_DISTINCT, "s2", 0): _orbit_count,
    (J3_PAIR_DIAG, "s2", 1): lambda w, q: gl2_group_order(q),
    (J2_SCALAR, "s2", 1): lambda w, q: sl_group_order(2, q),
    (J3_SCALAR, "s3", 1): lambda w, q: sl_group_order(3, q),
}


def test_every_equivariant_piece_has_a_lang_count():
    kept = {(xi, group, slot) for (xi, group), pieces in geom._EQUIVARIANT.items()
            for slot, piece in enumerate(pieces) if piece is not None}
    assert kept == set(LANG_COUNTS)


@pytest.mark.parametrize("xi, group, slot", list(LANG_COUNTS), ids=[
    f"r{xi.rank}-xi{xi.index}-{group}-{('orbit', 'stabilizer')[slot]}"
    for xi, group, slot in LANG_COUNTS])
def test_equivariant_piece_matches_lang_count(xi, group, slot):
    piece, count = geom._EQUIVARIANT[xi, group][slot], LANG_COUNTS[xi, group, slot]
    for w in LANG_WS[group, xi.rank]:
        character = _character(piece, w)
        for q in LANG_PRIMES:
            assert character.evaluate(q) == count(w, q), (w, q)


def test_s3_fibration_identity():
    # torus class times orbit class reproduces the trivial-action group class
    orbit, stab = geom._EQUIVARIANT[J3_DISTINCT, "s3"]
    assert stab * orbit == S3Elem(E_SL3)


def test_stratum_admissibility():
    assert len(admissible_strata(2)) == 4
    assert len(admissible_strata(3)) == 10
    with pytest.raises(ValueError):
        Stratum(J2_BLOCK, J2_SCALAR)
    with pytest.raises(ValueError):
        Stratum(J3_PAIR_DIAG, J3_EQUAL_B21)
    with pytest.raises(ValueError):
        Stratum(J3_DISTINCT, J3_PAIR_B2)
    with pytest.raises(ValueError):
        Stratum(J2_SCALAR, J3_SCALAR)


def test_rank2_stratum_table():
    for n in [*range(1, 51), *HUGE_NS]:
        assert stratum_epoly(Stratum(J2_SCALAR, J2_SCALAR), n) == 2 * E_SL2
        assert stratum_epoly(Stratum(J2_BLOCK, J2_BLOCK), n) == 4 * E_SL2
        assert stratum_epoly(Stratum(J2_DISTINCT, J2_DISTINCT), n) == \
            (Q - (n + 1)) * E_SL2
        assert stratum_epoly(Stratum(J2_DISTINCT, J2_SCALAR), n) == \
            (n - 1) * E_SL2 * (Q ** 2 + Q)


def test_rank3_stratum_table():
    e_pgl3 = E_SL3
    for n in [*range(1, 51), *HUGE_NS]:
        base = {
            (1, 1): 3 * e_pgl3,
            (2, 2): 3 * e_pgl3,
            (3, 3): 9 * e_pgl3,
            (4, 4): (Q - (3 * n + 1)) * e_pgl3,
            (5, 5): (Q - (3 * n + 1)) * e_pgl3,
        }
        for (i, j), expected in base.items():
            got = stratum_epoly(Stratum(JordanType(3, i), JordanType(3, j)), n)
            assert got == expected, (i, j, n)
        assert stratum_epoly(Stratum(J3_PAIR_B2, J3_EQUAL_B21), n) == \
            (3 * n - 3) * (Q ** 3 - 1) * (Q ** 3 + Q ** 2) * (Q - 1) * Q ** 3
        assert stratum_epoly(Stratum(J3_PAIR_DIAG, J3_SCALAR), n) == \
            (3 * n - 3) * (Q ** 2 + Q + 1) * Q ** 2 * (Q ** 3 - 1) * (Q ** 2 - 1) * Q ** 3
        assert stratum_epoly(Stratum(J3_DISTINCT, J3_SCALAR), n) == \
            ((n - 1) * (n - 2) // 2) * (Q ** 3 - 1) ** 2 * (Q + 1) ** 2 * Q ** 6
        expected_64 = Q ** 4 * (Q ** 3 - 1) * (Q ** 2 - 1) * (
            (n // 2) * (Q - 1) ** 2
            - ((3 * n * n - 5 * n + 2) // 2) * (Q - 1)
            - 3 * n * (n - 1))
        assert stratum_epoly(Stratum(J3_DISTINCT, J3_PAIR_DIAG), n) == expected_64
        assert stratum_epoly(Stratum(J3_DISTINCT, J3_DISTINCT), n) == \
            (Q ** 2 - Q - (n // 2) * (Q - 1) + n * n) * E_SL3


def test_stratum_examples():
    assert stratum_epoly(Stratum(J3_DISTINCT, J3_SCALAR), 2) == ZERO
    assert stratum_epoly(Stratum(J3_DISTINCT, J3_DISTINCT), 1) == \
        (Q ** 2 - Q + 1) * E_SL3


def test_strata_match_formula():
    for rank in (2, 3):
        for n in [*range(1, 31), *HUGE_NS]:
            assert rep_variety_epoly_strata(rank, n) == \
                rep_variety_epoly_formula(rank, n), (rank, n)


def test_strata_equal_formula_for_all_n():
    """Strata = formula for every n >= 1, not just for the n sampled above.

    Both routes are sum_k b_k(n) R_k over the twist basis b(n) = (1, n,
    n(n-1)/2, floor(n/2)): the strata route with R_k the sum of the rank's
    stratum rows, the formula with its own row.  So they agree for every n
    when the four polynomials agree, and only then, since b is independent
    on n = 1..4 (test_strata pins that determinant).  Values at sampled n,
    huge ones included, confirm that each route is its row summed against b.
    """
    for rank in (2, 3):
        rows = dense(term for s in admissible_strata(rank) for term in geom._ROWS[s.src, s.tgt])
        assert rows == dense(geom._FORMULA[rank]), rank
        for n in (1, 2, 3, 7, *HUGE_NS):
            b = (1, n, n * (n - 1) // 2, n // 2)
            value = sum((bk * r for bk, r in zip(b, rows)), ZERO)
            assert value == rep_variety_epoly_strata(rank, n), (rank, n)
            assert value == rep_variety_epoly_formula(rank, n), (rank, n)


def test_formula_values():
    assert rep_variety_epoly_formula(2, 1) == (Q + 4) * (Q ** 3 - Q)
    assert rep_variety_epoly_formula(2, 2) == (Q ** 2 + 2 * Q + 3) * (Q ** 3 - Q)
    assert rep_variety_epoly_formula(2, 3) == (2 * Q ** 2 + 3 * Q + 2) * (Q ** 3 - Q)


@pytest.mark.parametrize("p, c", [(3, 2), (5, 2)], ids=["F9", "F25"])
def test_rank2_formula_counts_points_over_a_prime_square_field(p, c):
    # Katz's criterion holds at every finite field, not only at primes:
    # over F_9 = F_3[i]/(i^2 + 1) and F_25 = F_5[t]/(t^2 - 2) the pairs counted
    # by table arithmetic equal the formula at every admissible n (2n | q - 1);
    # the least inadmissible n, 3 at q = 9 and 5 at q = 25, gives another count
    q = p * p
    admissible = [n for n in range(1, 13) if (q - 1) % (2 * n) == 0]
    assert admissible == ([1, 2, 4] if q == 9 else [1, 2, 3, 4, 6, 12])
    for n in admissible:
        assert count_commuting_pairs_sl2_over(p, c, n) == \
            rep_variety_epoly_formula(2, n).evaluate(q), (q, n)
    n = min(set(range(1, 13)) - set(admissible))
    assert count_commuting_pairs_sl2_over(p, c, n) != rep_variety_epoly_formula(2, n).evaluate(q)


def test_every_stratum_vanishes_at_one():
    for rank in (2, 3):
        for n in (1, 2, 3, 7, 20):
            for stratum in admissible_strata(rank):
                assert stratum_epoly(stratum, n).evaluate(1) == 0
            assert rep_variety_epoly_strata(rank, n).evaluate(1) == 0


def test_formula_rejects_bad_input():
    with pytest.raises(ValueError):
        rep_variety_epoly_formula(4, 1)
    with pytest.raises(ValueError):
        rep_variety_epoly_strata(4, 1)
    with pytest.raises(ValueError):
        admissible_strata(4)
    with pytest.raises(ValueError):
        rep_variety_epoly_formula(2, 0)


def test_one_pass_assembly_matches_the_sum_of_strata():
    # rep_variety_epoly_strata and the rank-3 formula each take one combine
    # pass; both must equal the sums and products they replace: the formula
    # is the outer factor times the bracket of its unfolded cofactors
    n2 = Poly([0, 2, -3, -3, 1, 2, 2, 1])
    n1 = Poly([0, 12, -1, -17, -3, 0, 6, 3])
    n0 = Poly([0, 13, 2, -6, -2, -1, 2, 1])
    floor = (Q ** 2 - Q) * (Q ** 2 - Q - 1)
    outer = (Q ** 3 - 1) * (Q ** 2 - 1) * Q ** 2
    for n in [*range(1, 51), *HUGE_NS]:
        for rank in (2, 3):
            assert rep_variety_epoly_strata(rank, n) == sum(
                (stratum_epoly(s, n) for s in admissible_strata(rank)), ZERO), (rank, n)
        twice = n * n * n2 - n * n1
        assert not any(c % 2 for c in twice.coeffs), n
        bracket = (n // 2) * floor + Poly([c // 2 for c in twice.coeffs]) + n0
        assert rep_variety_epoly_formula(3, n) == outer * bracket, n
