import pytest

from hopfvar.poly import ONE, Poly, Q
from hopfvar.repring import S2Elem, S3Elem
from hopfvar.strata import (
    P2_BOTH_EQUAL, P2_DISTINCT, P3_ALL_EQUAL, P3_DISTINCT, P3_TWO_EQUAL,
    Partition, config_epoly, config_epoly_plain, config_equivariant_s2,
    config_equivariant_s3, count_config_points, refinement_pairs, refines,
    smallest_admissible_prime,
)

# twist counts at which the table is checked against the closed forms below
NS = [*range(1, 301), 10 ** 18, 10 ** 18 + 1]


# -- oracle: closed forms in n, one per stratum, as written before the table --

def closed_config(src, tgt, n):
    key = (src.rank, src.index, tgt.index)
    return {
        (2, 1, 1): Poly.const(2),
        (2, 2, 1): Poly.const(2 * n - 2),
        (2, 2, 2): Q - (2 * n + 1),
        (3, 1, 1): Poly.const(3),
        (3, 2, 1): Poly.const(3 * n - 3),
        (3, 3, 1): Poly.const(3 * n * n - 9 * n + 6),
        (3, 2, 2): Q - (3 * n + 1),
        (3, 3, 2): (n - 1) * (Q - (3 * n + 1)),
        (3, 3, 3): Poly([6 * n * n + 3 * n + 1, -(3 * n + 2), 1]),
    }[key]


def closed_s2(src, tgt, n):
    if tgt is None:
        return S2Elem(Q - 2, Poly.const(-1))
    if tgt == P2_BOTH_EQUAL:
        return S2Elem(Poly.const(n - 1), Poly.const(n - 1))
    if tgt == P2_DISTINCT:
        return S2Elem(Q - (n + 1), Poly.const(-n))
    swap = 3 * n * (n - 1) // 2
    return S2Elem((n // 2) * (Q - 1) - swap, ((n - 1) // 2) * (Q - 1) - swap)


def closed_s3(tgt, n):
    if tgt is None:
        return S3Elem(Q * Q - Q + 1, ONE, -2 * Q + 4)
    if tgt == P3_ALL_EQUAL:
        m = (n - 1) * (n - 2)
        assert m % 2 == 0
        return S3Elem(Poly.const(m // 2), Poly.const(m // 2), Poly.const(m))
    nn, a, b = n * n, n // 2, (n - 1) // 2
    return S3Elem(Poly([nn + a, -1 - a, 1]), Poly([nn + b, -b]),
                  Poly([2 * nn + n + 1, -(n + 1)]))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(4, 1)
    with pytest.raises(ValueError):
        Partition(2, 3)
    with pytest.raises(ValueError):
        Partition(3, 0)


def test_refines():
    assert refines(P2_DISTINCT, P2_BOTH_EQUAL)
    assert not refines(P2_BOTH_EQUAL, P2_DISTINCT)
    assert refines(P3_DISTINCT, P3_TWO_EQUAL)
    assert refines(P3_TWO_EQUAL, P3_ALL_EQUAL)
    assert refines(P3_DISTINCT, P3_ALL_EQUAL)
    assert not refines(P3_TWO_EQUAL, P3_DISTINCT)
    for p in (P2_BOTH_EQUAL, P3_DISTINCT):
        assert refines(p, p)
    with pytest.raises(ValueError):
        refines(P2_DISTINCT, P3_DISTINCT)
    # refines compares indices; block inclusion is the definition
    for rank in (2, 3):
        parts = [Partition(rank, i) for i in range(1, rank + 1)]
        for src in parts:
            for tgt in parts:
                inside = all(any(set(b) <= set(t) for t in tgt.blocks) for b in src.blocks)
                assert refines(src, tgt) == inside, (src, tgt)


def test_refinement_pairs():
    assert len(refinement_pairs(2)) == 3
    assert len(refinement_pairs(3)) == 6


def test_plain_values():
    assert config_epoly_plain(P2_BOTH_EQUAL) == 2
    assert config_epoly_plain(P2_DISTINCT) == Q - 3
    assert config_epoly_plain(P3_ALL_EQUAL) == 3
    assert config_epoly_plain(P3_TWO_EQUAL) == Q - 4
    assert config_epoly_plain(P3_DISTINCT) == Q ** 2 - 5 * Q + 10


def test_config_epoly_values():
    assert config_epoly(P3_DISTINCT, P3_ALL_EQUAL, 3) == 6
    assert config_epoly(P3_DISTINCT, P3_ALL_EQUAL, 1) == 0
    assert config_epoly(P3_DISTINCT, P3_DISTINCT, 2) == Q ** 2 - 8 * Q + 31
    assert config_epoly(P2_DISTINCT, P2_BOTH_EQUAL, 4) == 6
    assert config_epoly(P2_DISTINCT, P2_DISTINCT, 3) == Q - 7
    for rank in (2, 3):
        for src, tgt in refinement_pairs(rank):
            for n in NS:
                assert config_epoly(src, tgt, n) == closed_config(src, tgt, n), (src, tgt, n)


def test_config_epoly_requires_refinement():
    with pytest.raises(ValueError):
        config_epoly(P2_BOTH_EQUAL, P2_DISTINCT, 2)
    with pytest.raises(ValueError):
        config_epoly(P3_TWO_EQUAL, P3_DISTINCT, 2)


def test_config_epoly_requires_valid_twists():
    with pytest.raises(ValueError):
        config_epoly(P2_DISTINCT, P2_DISTINCT, 0)


def test_equivariant_s2_values():
    assert config_equivariant_s2(P2_DISTINCT, P2_BOTH_EQUAL, 5) == S2Elem(4, 4)
    assert config_equivariant_s2(P3_DISTINCT, P3_TWO_EQUAL, 1).is_zero()
    assert config_equivariant_s2(P3_DISTINCT, P3_TWO_EQUAL, 2) == S2Elem(Q - 4, -3)
    assert config_equivariant_s2(P2_DISTINCT, None, 7) == S2Elem(Q - 2, -1)
    assert config_equivariant_s2(P2_DISTINCT, P2_DISTINCT, 3) == S2Elem(Q - 4, -3)
    pairs = [(P2_DISTINCT, None), (P2_DISTINCT, P2_BOTH_EQUAL),
             (P2_DISTINCT, P2_DISTINCT), (P3_DISTINCT, P3_TWO_EQUAL)]
    for src, tgt in pairs:
        for n in NS:
            assert config_equivariant_s2(src, tgt, n) == closed_s2(src, tgt, n), (src, tgt, n)


def test_equivariant_s2_rejects_pairs_without_action():
    with pytest.raises(ValueError):
        config_equivariant_s2(P2_BOTH_EQUAL, P2_BOTH_EQUAL, 2)
    with pytest.raises(ValueError):
        config_equivariant_s2(P3_TWO_EQUAL, P3_ALL_EQUAL, 2)


def test_equivariant_s3_values():
    assert config_equivariant_s3(P3_ALL_EQUAL, 4) == S3Elem(3, 3, 6)
    assert config_equivariant_s3(P3_ALL_EQUAL, 2).is_zero()
    # at one twist the power map is the identity, so the degeneration-free
    # stratum is the whole space
    assert config_equivariant_s3(P3_DISTINCT, 1) == S3Elem(Q ** 2 - Q + 1, 1, -2 * Q + 4)
    assert config_equivariant_s3(P3_DISTINCT, 1) == config_equivariant_s3(None, 1)
    for tgt in (None, P3_ALL_EQUAL, P3_DISTINCT):
        for n in NS:
            assert config_equivariant_s3(tgt, n) == closed_s3(tgt, n), (tgt, n)
    with pytest.raises(ValueError):
        config_equivariant_s3(P3_TWO_EQUAL, 2)


def test_decomposition_identities():
    for n in range(1, 101):
        assert config_epoly_plain(P2_DISTINCT) == (
            config_epoly(P2_DISTINCT, P2_DISTINCT, n)
            + config_epoly(P2_DISTINCT, P2_BOTH_EQUAL, n))
        assert config_epoly_plain(P3_TWO_EQUAL) == (
            config_epoly(P3_TWO_EQUAL, P3_TWO_EQUAL, n)
            + config_epoly(P3_TWO_EQUAL, P3_ALL_EQUAL, n))
        # the three ways a distinct triple can power into a coincident pair
        # are isomorphic strata, hence the factor 3
        assert config_epoly_plain(P3_DISTINCT) == (
            config_epoly(P3_DISTINCT, P3_DISTINCT, n)
            + 3 * config_epoly(P3_DISTINCT, P3_TWO_EQUAL, n)
            + config_epoly(P3_DISTINCT, P3_ALL_EQUAL, n))


def test_equivariant_dims_match_plain():
    for n in range(1, 101):
        assert config_equivariant_s2(P2_DISTINCT, P2_BOTH_EQUAL, n).dim() == \
            config_epoly(P2_DISTINCT, P2_BOTH_EQUAL, n)
        assert config_equivariant_s2(P2_DISTINCT, P2_DISTINCT, n).dim() == \
            config_epoly(P2_DISTINCT, P2_DISTINCT, n)
        assert config_equivariant_s2(P3_DISTINCT, P3_TWO_EQUAL, n).dim() == \
            config_epoly(P3_DISTINCT, P3_TWO_EQUAL, n)
        assert config_equivariant_s3(P3_ALL_EQUAL, n).dim() == \
            config_epoly(P3_DISTINCT, P3_ALL_EQUAL, n)
        assert config_equivariant_s3(P3_DISTINCT, n).dim() == \
            config_epoly(P3_DISTINCT, P3_DISTINCT, n)
    assert config_equivariant_s2(P2_DISTINCT, None, 3).dim() == \
        config_epoly_plain(P2_DISTINCT)
    assert config_equivariant_s3(None, 3).dim() == config_epoly_plain(P3_DISTINCT)


def test_count_frozen_values():
    assert count_config_points(P2_DISTINCT, P2_BOTH_EQUAL, 2, 5) == 2
    assert count_config_points(P2_DISTINCT, P2_DISTINCT, 2, 5) == 0
    assert count_config_points(P3_DISTINCT, P3_ALL_EQUAL, 1, 7) == 0


def test_count_matches_epoly_sample():
    cases = [
        (P2_DISTINCT, P2_BOTH_EQUAL, 3, 7),
        (P2_DISTINCT, P2_DISTINCT, 3, 13),
        (P2_BOTH_EQUAL, P2_BOTH_EQUAL, 2, 5),
        (P3_DISTINCT, P3_DISTINCT, 2, 13),
        (P3_DISTINCT, P3_TWO_EQUAL, 2, 13),
        (P3_DISTINCT, P3_ALL_EQUAL, 4, 13),
        (P3_TWO_EQUAL, P3_ALL_EQUAL, 2, 7),
        (P3_ALL_EQUAL, P3_ALL_EQUAL, 4, 13),
    ]
    for src, tgt, n, q in cases:
        assert count_config_points(src, tgt, n, q) == \
            config_epoly(src, tgt, n).evaluate(q), (src, tgt, n, q)


def test_count_preconditions():
    with pytest.raises(ValueError):
        count_config_points(P2_DISTINCT, P2_BOTH_EQUAL, 2, 9)  # not prime
    with pytest.raises(ValueError):
        count_config_points(P2_DISTINCT, P2_BOTH_EQUAL, 2, 7)  # 4 does not divide 6
    with pytest.raises(ValueError):
        count_config_points(P2_BOTH_EQUAL, P2_DISTINCT, 2, 5)  # not a refinement


def test_smallest_admissible_prime():
    assert smallest_admissible_prime(2, 1) == 3
    assert smallest_admissible_prime(2, 4) == 17
    assert smallest_admissible_prime(3, 1) == 7
    assert smallest_admissible_prime(3, 2) == 7
    assert smallest_admissible_prime(3, 3) == 19
    for rank in (2, 3):
        for n in range(1, 7):
            assert smallest_admissible_prime(rank, n) <= 97
