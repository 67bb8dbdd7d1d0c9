import random

import pytest

from hopfvar.poly import ONE, ZERO, Poly, Q
from hopfvar.repring import S2Elem, S3Elem


def rand_poly(rng):
    return Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 4))])


# -- S2 ------------------------------------------------------------------------

def test_s2_square_of_torus_class():
    torus = S2Elem(Q, -1)
    assert torus * torus == S2Elem(Q ** 2 + 1, -2 * Q)


def test_s2_unit():
    rng = random.Random(3)
    for _ in range(20):
        x = S2Elem(rand_poly(rng), rand_poly(rng))
        assert S2Elem(1) * x == x


def test_s2_degenerate_times_orbit():
    n = 4
    left = S2Elem(n - 1, n - 1)
    right = S2Elem(Q ** 2, Q)
    expected = S2Elem((n - 1) * (Q ** 2 + Q), (n - 1) * (Q ** 2 + Q))
    assert left * right == expected


def test_s2_from_quotients():
    # the punctured torus class (q - 2) T - N: e(X) = q - 3, e(X/S2) = q - 2
    torus = S2Elem(Q - 2, -1)
    assert torus.dim() == Q - 3
    assert torus.t == Q - 2


def test_s2_commutative_associative():
    rng = random.Random(5)
    for _ in range(40):
        x = S2Elem(rand_poly(rng), rand_poly(rng))
        y = S2Elem(rand_poly(rng), rand_poly(rng))
        z = S2Elem(rand_poly(rng), rand_poly(rng))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x.dim() * y.dim() == (x * y).dim()


# -- S3 ------------------------------------------------------------------------

def test_s3_basis_products():
    S = S3Elem(0, 1, 0)
    D = S3Elem(0, 0, 1)
    assert S * S == S3Elem(1)
    assert S * D == D
    assert D * D == S3Elem(1, 1, 1)


def test_s3_torus_times_orbit_gives_group_class():
    torus = S3Elem(Q ** 2, 1, -Q)
    orbit = S3Elem(Q ** 6, Q ** 3, Q ** 5 + Q ** 4)
    product = torus * orbit
    assert product.t == Q ** 8 - Q ** 6 - Q ** 5 + Q ** 3
    assert product == S3Elem(Q ** 8 - Q ** 6 - Q ** 5 + Q ** 3)


def test_s3_from_quotients():
    # the norm-one torus class q^2 T + S - q D: e(X) = (q - 1)^2, e(X/tau) =
    # t + d = q^2 - q, e(X/S3) = t = q^2
    torus = S3Elem(Q ** 2, 1, -Q)
    assert torus.dim() == (Q - 1) ** 2
    assert torus.t + torus.d == Q ** 2 - Q
    assert torus.t == Q ** 2


def test_s3_trivial_action():
    # a trivial-action class e * T is written with its T-coefficient alone
    assert S3Elem(Q ** 8 - Q ** 6 - Q ** 5 + Q ** 3).s == ZERO
    assert S2Elem(Q ** 4 - Q ** 3 - Q ** 2 + Q) == S2Elem(Q ** 4 - Q ** 3 - Q ** 2 + Q, 0)
    assert S3Elem(0).is_zero()


def test_s3_commutative_associative_dim():
    rng = random.Random(13)
    for _ in range(40):
        x = S3Elem(rand_poly(rng), rand_poly(rng), rand_poly(rng))
        y = S3Elem(rand_poly(rng), rand_poly(rng), rand_poly(rng))
        z = S3Elem(rand_poly(rng), rand_poly(rng), rand_poly(rng))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert S3Elem(1) * x == x
        assert x.dim() * y.dim() == (x * y).dim()


def test_t_and_dim_components():
    assert S2Elem(Q ** 2 + 1, -2 * Q).t == Q ** 2 + 1
    p = 5 * Q + 1
    assert S2Elem(p, 0).t == p
    assert S2Elem(Q - 2, -1).dim() == Q - 3
    assert S3Elem(Q ** 2 - Q + 1, ONE, -2 * Q + 4).dim() == Q ** 2 - 5 * Q + 10
    assert S3Elem(p, 0, 0).dim() == p


def test_rendering():
    assert S2Elem(Q ** 2 + 1, -2 * Q).to_ascii() == "(q^2 + 1)*T - 2*q*N"
    assert S2Elem(Q, -1).to_ascii() == "q*T - N"
    assert S3Elem(Q ** 2, 1, -Q).to_ascii() == "q^2*T + S - q*D"
    assert S2Elem(0, 0).to_ascii() == "0"
    assert repr(S2Elem(Q, -1)) == "S2Elem('q*T - N')" == f"S2Elem('{S2Elem(Q, -1)}')"
    assert repr(S3Elem(0, 0, 2)) == "S3Elem('2*D')"


def test_shared_body_keeps_each_ring_apart():
    assert S2Elem(1) != S3Elem(1)
    assert len({S3Elem(Q, 1, 0), S3Elem(Q, 1), S3Elem(Q, 0, 1)}) == 2
    # + and * take an operand of their own ring only, and refuse any other
    # with TypeError
    for left, right in ((S2Elem(1), S3Elem(1)), (S3Elem(1), S2Elem(1)), (S2Elem(1), 2),
                        (S3Elem(Q), Q), (Q, S2Elem(1)), (2, S3Elem(1))):
        with pytest.raises(TypeError):
            left + right
        with pytest.raises(TypeError):
            left * right
