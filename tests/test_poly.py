import random
from fractions import Fraction

import pytest

from hopfvar.poly import (
    ONE, Poly, Q, ZERO, general_linear_epoly, special_linear_epoly,
    sym_projective_epoly,
)


def test_canonical_form_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0, 0]).coeffs == ()
    assert Poly() == ZERO
    assert not Poly([0])


def test_addition():
    assert (Q - 1) + (Q + 1) == 2 * Q
    assert (Q ** 3 - Q) + ZERO == Q ** 3 - Q
    # degenerate-pair count at n=4 merges into the distinct count
    assert (Q - 3) + 6 == Q + 3


def test_multiplication():
    assert (Q - 1) * (Q + 1) == Q ** 2 - 1
    assert (Q ** 2 - 1) * (Q ** 2 - Q) == Q ** 4 - Q ** 3 - Q ** 2 + Q
    assert (Q ** 3 - 1) * (Q ** 3 - Q) * Q ** 2 == Poly([0, 0, 0, 1, 0, -1, -1, 0, 1])


def test_evaluate():
    assert (Q ** 3 - Q).evaluate(7) == 336
    # 1080 = exhaustive count of commuting pairs in SL2(F5), frozen from the
    # pair-enumeration oracle
    assert (Q ** 4 + 4 * Q ** 3 - Q ** 2 - 4 * Q).evaluate(5) == 1080
    assert ZERO.evaluate(12345) == 0
    assert Poly([5]).evaluate(0) == 5


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(200):
        a = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        b = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        x = rng.randint(-10, 10)
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(11)
    polys = [Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 5))])
             for _ in range(30)]
    for a, b, c in zip(polys, polys[1:], polys[2:]):
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * ONE == a
        assert a + ZERO == a


def test_sym_projective_values():
    assert sym_projective_epoly(1, 3) == Q ** 3 + Q ** 2 + Q + 1
    assert sym_projective_epoly(2, 2) == Poly([1, 1, 2, 1, 1])
    assert sym_projective_epoly(2, 3) == Poly([1, 1, 2, 2, 2, 1, 1])


def test_sym_projective_boundary():
    for m in range(5):
        assert sym_projective_epoly(m, 0) == ONE
        assert sym_projective_epoly(m, 1) == Poly([1] * (m + 1))
    # symmetric powers of the line are projective spaces
    for r in range(6):
        assert sym_projective_epoly(1, r) == Poly([1] * (r + 1))


def test_sym_projective_rejects_negative():
    with pytest.raises(ValueError):
        sym_projective_epoly(-1, 2)
    with pytest.raises(ValueError):
        sym_projective_epoly(2, -1)


# every size argument of the group and symmetric-product series, by name
SIZED = {
    "special_linear_epoly": ("r", special_linear_epoly),
    "general_linear_epoly": ("r", general_linear_epoly),
    "sym_projective_epoly(m)": ("m", lambda m: sym_projective_epoly(m, 1)),
    "sym_projective_epoly(r)": ("r", lambda r: sym_projective_epoly(1, r)),
}


@pytest.mark.parametrize("size", ([2], 2.0, "2", True, None, "x" * 5000),
                         ids=("list", "float", "str", "bool", "None", "long-str"))
@pytest.mark.parametrize("name", SIZED)
def test_sizes_must_be_ints(name, size):
    # a size that is not an int, or is a bool, is refused with ValueError
    # naming its type alone: [2] and 2.0 failed on a comparison or a power,
    # and True passed as 1
    arg, call = SIZED[name]
    with pytest.raises(ValueError) as err:
        call(size)
    assert str(err.value) == f"{arg} must be an int, got {type(size).__name__}"


def test_group_epolys():
    assert special_linear_epoly(2) == Q ** 3 - Q
    assert special_linear_epoly(3) == Q ** 8 - Q ** 6 - Q ** 5 + Q ** 3
    assert general_linear_epoly(2) == Q ** 4 - Q ** 3 - Q ** 2 + Q
    # group orders over small fields
    assert special_linear_epoly(2).evaluate(5) == 120
    assert special_linear_epoly(3).evaluate(7) == 5630688


def test_big_coefficients_are_exact():
    # far beyond 64-bit: arbitrary precision, no silent wrap
    big = Poly([2 ** 100])
    assert (big * big).coeffs == (2 ** 200,)
    assert Poly([1, 1]).evaluate(2 ** 80) == 2 ** 80 + 1


def test_ascii_rendering():
    assert (Q ** 3 - Q).to_ascii() == "q^3 - q"
    assert (Q ** 4 + 4 * Q ** 3 - Q ** 2 - 4 * Q).to_ascii() == "q^4 + 4*q^3 - q^2 - 4*q"
    assert ZERO.to_ascii() == "0"
    assert Poly([-7]).to_ascii() == "-7"
    assert (2 * Q).to_ascii() == "2*q"
    assert (-Q ** 2 + 1).to_ascii() == "-q^2 + 1"
    assert (Q ** 2 - Q).to_ascii() == "q^2 - q"
    assert (-Q).to_ascii() == "-q"
    assert Poly([-1]).to_ascii() == "-1"
    assert (Q ** 10 - 12 * Q ** 2 - 1).to_ascii() == "q^10 - 12*q^2 - 1"


def test_latex_rendering():
    assert (Q ** 3 - Q).to_latex() == "q^{3}-q"
    assert (Q ** 2 + 1).to_latex() == "q^{2}+1"
    assert (4 * Q ** 2 - 3 * Q + 4).to_latex() == "4q^{2}-3q+4"
    assert ZERO.to_latex() == "0"
    assert (-Q ** 2 + 1).to_latex() == "-q^{2}+1"
    assert (Q ** 2 - Q).to_latex() == "q^{2}-q"
    assert (-Q).to_latex() == "-q"
    assert Poly([-1]).to_latex() == "-1"
    assert (Q ** 10 - 12 * Q ** 2 - 1).to_latex() == "q^{10}-12q^{2}-1"


def test_equality_and_hash():
    assert Poly([0, 1]) == Q
    assert Q != Q + 1
    assert Poly([3]) == 3
    assert hash(Poly([1, 2])) == hash(Poly([1, 2, 0]))


def test_pow():
    assert (Q + 1) ** 2 == Q ** 2 + 2 * Q + 1
    assert (Q - 1) ** 0 == ONE
    with pytest.raises(ValueError):
        Q ** -1


def test_constructor_rejects_non_int_coefficients():
    with pytest.raises(TypeError):
        Poly([1, 2.5])
    with pytest.raises(TypeError):
        Poly(["1"])


@pytest.mark.parametrize("other", [1.5, "q"])
def test_non_int_operands_raise_type_error(other):
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(Q + 1, other)
        with pytest.raises(TypeError):
            op(other, Q + 1)


def test_results_are_canonical():
    assert ((Q + 1) - (Q + 1)).coeffs == ()
    assert ((Q ** 2 + Q) + (-(Q ** 2))).coeffs == (0, 1)
    assert ((Q ** 3 + 2) - Q ** 3).coeffs == (2,)
    assert (Q - Q).coeffs == () and (Q + (-Q)).coeffs == ()
    assert ((Q + 1) * 0).coeffs == () and (0 * (Q + 1)).coeffs == ()
    assert ((Q + 1) * ZERO).coeffs == () and (ZERO * (Q + 1)).coeffs == ()
    assert (ZERO + 0).coeffs == () and (ZERO - 0).coeffs == () and (0 - ZERO).coeffs == ()
    assert (1 - ONE).coeffs == () and (ONE - 1).coeffs == ()
    assert (-ZERO).coeffs == () and (ZERO ** 3).coeffs == ()


# Naive reference arithmetic on coefficient lists, ascending.

def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _ref_neg(a):
    return _trim(-c for c in a)


def _ref_mul(a, b):
    out = [0] * (len(a) + len(b))
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] * b[j]
    return _trim(out)


def _ref_pow(a, e):
    out = (1,)
    for _ in range(e):
        out = _ref_mul(out, a)
    return out


def _random_coeffs(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return []                                          # zero
    if kind == 1:
        return [rng.randint(-9, 9)]                        # constant
    width = 10 ** 100 if kind == 2 else 9                  # 100-digit coefficients
    cs = [rng.randint(-width, width) for _ in range(rng.randint(1, 6))]
    if kind == 3:
        cs += [0] * rng.randint(1, 3)                      # trailing zeros
    return cs


def test_arithmetic_matches_naive_reference():
    rng = random.Random(2024)
    for _ in range(400):
        ca, cb = _random_coeffs(rng), _random_coeffs(rng)
        a, b = Poly(ca), Poly(cb)
        ra, rb = _trim(ca), _trim(cb)
        k = rng.choice([0, 1, -1, rng.randint(-10 ** 30, 10 ** 30)])
        rk = _trim([k])
        assert (a + b).coeffs == _ref_add(ra, rb)
        assert (a - b).coeffs == _ref_add(ra, _ref_neg(rb))
        assert (-a).coeffs == _ref_neg(ra)
        assert (a * b).coeffs == _ref_mul(ra, rb)
        assert (a + k).coeffs == (k + a).coeffs == _ref_add(ra, rk)
        assert (a - k).coeffs == _ref_add(ra, _ref_neg(rk))
        assert (k - a).coeffs == _ref_add(rk, _ref_neg(ra))
        assert (a * k).coeffs == (k * a).coeffs == _ref_mul(ra, rk)
        e = rng.randint(0, 4)
        assert (a ** e).coeffs == _ref_pow(ra, e)


def test_combine_matches_naive_sum():
    rng = random.Random(14)
    big = 2 ** 200
    for _ in range(300):
        terms = []
        for _ in range(rng.randint(0, 6)):
            cs = _random_coeffs(rng)
            if rng.random() < 0.2:
                cs = [rng.randint(big, 2 * big) * rng.choice((1, -1)) for _ in cs]
            s = rng.choice([0, 1, -1, rng.randint(-9, 9), rng.randint(-big, big)])
            terms.append((s, Poly(cs)))
        if terms and rng.random() < 0.3:
            # a last term that cancels the leading coefficients of the others
            p = sum((s * p for s, p in terms), ZERO)
            terms.append((-1, p - Poly(p.coeffs[:rng.randint(0, max(p.degree, 0))])))
        expected = sum((s * p for s, p in terms), ZERO)
        got = Poly.combine(terms)
        assert got == expected
        assert got.coeffs == _trim(got.coeffs)
        assert Poly.combine(iter(terms)) == expected
    assert Poly.combine([]) == ZERO and Poly.combine([]).coeffs == ()
    assert Poly.combine([(3, Q ** 2 + 1), (-3, Q ** 2)]).coeffs == (3,)
    assert Poly.combine([(2, ZERO), (0, Q)]).coeffs == ()


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), "q"])
def test_combine_rejects_non_int_scalars_and_non_poly_operands(bad):
    with pytest.raises(TypeError):
        Poly.combine([(1, Q), (bad, Q)])
    with pytest.raises(TypeError):
        Poly.combine([(1, Q), (2, bad)])
    with pytest.raises(TypeError):
        Poly.combine([(0, bad)])
    with pytest.raises(TypeError):
        Poly.combine([(0 * bad, Q)])  # a zero scalar is checked too
