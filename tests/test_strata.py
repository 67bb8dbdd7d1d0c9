import itertools
import math
from fractions import Fraction

import pytest

from hopfvar import charvar, geom, strata
from hopfvar.charvar import char_piece_epoly, char_variety_epoly_formula
from hopfvar.ffcount import count_rep_variety_points
from hopfvar.geom import (
    JordanType, admissible_strata, rep_variety_epoly_formula, rep_variety_epoly_strata,
    stratum_epoly,
)
from hopfvar.poly import ONE, Poly, Q
from hopfvar.repring import S2Elem, S3Elem
from hopfvar.strata import (
    P2_BOTH_EQUAL, P2_DISTINCT, P3_ALL_EQUAL, P3_DISTINCT, P3_TWO_EQUAL,
    Partition, admissibility_modulus, check_twists, config_epoly, config_equivariant_s2,
    config_equivariant_s3, is_admissible, refinement_pairs, twist_basis, twist_sum,
)

from _oracles import _PATTERNS, smallest_admissible_prime, twisted_config_count

# twist counts at which the table is checked against the closed forms below
NS = [*range(1, 301), 10 ** 18, 10 ** 18 + 1]


# -- oracle: closed forms in n, one per stratum, as written before the table --

def closed_config(src, tgt, n):
    key = (src.rank, src.index, tgt.index)
    return {
        (2, 1, 1): Poly([2]),
        (2, 2, 1): Poly([2 * n - 2]),
        (2, 2, 2): Q - (2 * n + 1),
        (3, 1, 1): Poly([3]),
        (3, 2, 1): Poly([3 * n - 3]),
        (3, 3, 1): Poly([3 * n * n - 9 * n + 6]),
        (3, 2, 2): Q - (3 * n + 1),
        (3, 3, 2): (n - 1) * (Q - (3 * n + 1)),
        (3, 3, 3): Poly([6 * n * n + 3 * n + 1, -(3 * n + 2), 1]),
    }[key]


def closed_s2(src, tgt, n):
    if tgt is None:
        return S2Elem(Q - 2, Poly([-1]))
    if tgt == P2_BOTH_EQUAL:
        return S2Elem(Poly([n - 1]), Poly([n - 1]))
    if tgt == P2_DISTINCT:
        return S2Elem(Q - (n + 1), Poly([-n]))
    swap = 3 * n * (n - 1) // 2
    return S2Elem((n // 2) * (Q - 1) - swap, ((n - 1) // 2) * (Q - 1) - swap)


def closed_s3(tgt, n):
    if tgt is None:
        return S3Elem(Q * Q - Q + 1, ONE, -2 * Q + 4)
    if tgt == P3_ALL_EQUAL:
        m = (n - 1) * (n - 2)
        assert m % 2 == 0
        return S3Elem(Poly([m // 2]), Poly([m // 2]), Poly([m]))
    nn, a, b = n * n, n // 2, (n - 1) // 2
    return S3Elem(Poly([nn + a, -1 - a, 1]), Poly([nn + b, -b]),
                  Poly([2 * nn + n + 1, -(n + 1)]))


# every public function that takes a rank, called at that rank
RANKED = {
    "Partition": lambda r: Partition(r, 1),
    "Partition(r, 0)": lambda r: Partition(r, 0),
    "JordanType": lambda r: JordanType(r, 1),
    "admissibility_modulus": lambda r: admissibility_modulus(r, 1),
    "admissible_strata": admissible_strata,
    "rep_variety_epoly_strata": lambda r: rep_variety_epoly_strata(r, 1),
    "rep_variety_epoly_formula": lambda r: rep_variety_epoly_formula(r, 1),
    "char_piece_epoly": lambda r: char_piece_epoly(r, "total", 1),
    "char_variety_epoly_formula": lambda r: char_variety_epoly_formula(r, 1),
    "count_rep_variety_points": lambda r: count_rep_variety_points(r, 1, 5),
    "refinement_pairs": refinement_pairs,
}


@pytest.mark.parametrize("rank", (0, 1, 4, 2.0, 3.0, "3", True))
@pytest.mark.parametrize("name", RANKED)
def test_one_rank_policy(name, rank):
    # one rule for every ranked entry point: the same error, word for word,
    # raised by the call itself
    with pytest.raises(ValueError) as err:
        RANKED[name](rank)
    assert str(err.value) == f"rank must be 2 or 3, got {rank!r}"


@pytest.mark.parametrize("index", (1.5, 2.0, True, "2"))
@pytest.mark.parametrize("cls, kind", [(Partition, "partition"), (JordanType, "Jordan type")],
                         ids=["Partition", "JordanType"])
def test_one_index_policy(cls, kind, index):
    # an index is an int, as a twist count is: 2.0 or True would construct and
    # then fail or pass for another index, and "2" would fail on the comparison
    with pytest.raises(ValueError) as err:
        cls(3, index)
    assert str(err.value) == f"invalid {kind} index {index!r} for rank 3"


# every public function that takes a twist count, called at that count
TWISTED = {
    "check_twists": check_twists,
    "twist_basis": twist_basis,
    "twist_sum": lambda n: twist_sum(((0, ONE),), n),
    "config_epoly": lambda n: config_epoly(P2_DISTINCT, P2_DISTINCT, n),
    "config_equivariant_s2": lambda n: config_equivariant_s2(P2_DISTINCT, None, n),
    "config_equivariant_s3": lambda n: config_equivariant_s3(None, n),
    "admissibility_modulus": lambda n: admissibility_modulus(2, n),
    "is_admissible": lambda n: is_admissible(2, n, 5),
    "stratum_epoly": lambda n: stratum_epoly(admissible_strata(2)[0], n),
    "rep_variety_epoly_strata": lambda n: rep_variety_epoly_strata(2, n),
    "rep_variety_epoly_formula": lambda n: rep_variety_epoly_formula(2, n),
    "char_piece_epoly": lambda n: char_piece_epoly(2, "total", n),
    "char_variety_epoly_formula": lambda n: char_variety_epoly_formula(2, n),
    "count_rep_variety_points": lambda n: count_rep_variety_points(2, n, 5),
}


@pytest.mark.parametrize("n", (0, -1, 2.0, "2", True, False))
@pytest.mark.parametrize("name", TWISTED)
def test_one_twist_policy(name, n):
    # one rule for every entry point that takes n: an int >= 1, and a bool
    # is not one, although isinstance(True, int) holds
    with pytest.raises(ValueError) as err:
        TWISTED[name](n)
    assert str(err.value) == f"twist count must be an integer >= 1, got {n!r}"


def test_refusals_name_a_long_input_by_its_size():
    # a refusal echoes a short input as its repr and names a longer one by
    # its size, so that no message grows with its input; an int is sized
    # without str(), which refuses one past the interpreter's digit limit
    for k in range(1, 60):
        for value in (10 ** k - 1, 10 ** k, -10 ** k):
            named = strata.shown(value)
            if len(repr(value)) <= 40:
                assert named == repr(value), value
            else:
                sign = "negative " if value < 0 else ""
                assert named == f"<{sign}integer of {len(str(abs(value)))} digits>", value
    for value, named in ((True, "True"), ("2", "'2'"), (2.0, "2.0"),
                         ("x" * 41, "<str of 41 characters>"), ([0] * 20, "<list of 60 characters>")):
        assert strata.shown(value) == named
    with pytest.raises(ValueError) as err:
        check_twists(-10 ** 5000)
    assert str(err.value) == \
        "twist count must be an integer >= 1, got <negative integer of 5001 digits>"
    with pytest.raises(ValueError) as err:
        strata.check_rank(10 ** 5000)
    assert str(err.value) == "rank must be 2 or 3, got <integer of 5001 digits>"
    # the table lookups name a pattern or Jordan type they cannot read the same
    # way, and refuse one they cannot hash, such as a list or dict, as one
    # they have no row for
    for refuse, named in (
            (lambda: config_epoly("x" * 5000, None, 1),
             "no plain configuration data for (<str of 5000 characters>, None)"),
            (lambda: config_equivariant_s2(P2_DISTINCT, "y" * 3000, 1),
             "no s2 configuration data for "
             "(Partition(rank=2, index=2), <str of 3000 characters>)"),
            (lambda: config_epoly(10 ** 5000, None, 1),
             "no plain configuration data for (<integer of 5001 digits>, None)"),
            (lambda: geom.Stratum(geom.J2_SCALAR, "z" * 3000),
             "inadmissible stratum JordanType(rank=2, index=1) -> <str of 3000 characters>"),
            (lambda: config_epoly([1], None, 1), "no plain configuration data for ([1], None)"),
            (lambda: strata.config_rows({}, None, None),
             "no plain configuration data for (None, None)"),
            (lambda: config_equivariant_s2(P2_DISTINCT, [1], 1),
             "no s2 configuration data for (Partition(rank=2, index=2), [1])"),
            (lambda: config_equivariant_s3({}, 1),
             "no s3 configuration data for (Partition(rank=3, index=3), {})"),
            (lambda: geom.Stratum(geom.J2_SCALAR, [1]),
             "inadmissible stratum JordanType(rank=2, index=1) -> [1]"),
            (lambda: geom.Stratum({}, geom.J2_SCALAR),
             "inadmissible stratum {} -> JordanType(rank=2, index=1)")):
        with pytest.raises(ValueError) as err:
            refuse()
        assert str(err.value) == named and len(named) < 200


def test_twist_basis_matches_independent_definitions():
    # the strata, the pieces and both closed formulas share twist_basis, so it
    # is pinned here by definitions that share no code with it
    for n in [*range(1, 201), 10 ** 18, 10 ** 18 + 1, 10 ** 30 + 7]:
        basis = twist_basis(n)
        assert basis == (1, n, Fraction(n * (n - 1), 2), math.floor(Fraction(n, 2))), n
        assert all(type(b) is int for b in basis), n
        if n <= 200:
            assert basis[2] == sum(1 for _ in itertools.combinations(range(n), 2)), n


def test_twist_basis_is_independent_on_one_to_four():
    # determinant +-2 at n = 1..4: a row of polynomials summed against the
    # basis vanishes for every n only if the row is zero, so two routes on the
    # basis agree for every n exactly when their rows agree
    rows = [twist_basis(n) for n in (1, 2, 3, 4)]
    det = sum((-1) ** sum(p[i] > p[j] for i, j in itertools.combinations(range(4), 2))
              * math.prod(rows[i][p[i]] for i in range(4))
              for p in itertools.permutations(range(4)))
    assert abs(det) == 2, det


def test_every_symbolic_table_has_one_row_format():
    # twist_sum reads every table summed against the twist basis, so each row
    # is a tuple of (int k, nonzero Poly) terms with k strictly increasing in
    # 0..3; geom._RANK_ROWS, a concatenation of geom._ROWS, is exempt
    rows = {f"strata._CONFIG{key}[{i}]": row for key, irreducibles in strata._CONFIG.items()
            for i, row in enumerate(irreducibles)}
    rows.update({f"geom._ROWS{key}": row for key, row in geom._ROWS.items()})
    rows.update({f"geom._FORMULA[{rank}]": row for rank, row in geom._FORMULA.items()})
    rows.update({f"charvar._ROWS[{rank}][{piece}]": row
                 for rank, pieces in charvar._ROWS.items() for piece, row in pieces.items()})
    rows["charvar._FORMULA_R3"] = charvar._FORMULA_R3
    for name, row in rows.items():
        assert type(row) is tuple, name
        for term in row:
            assert type(term) is tuple and len(term) == 2, (name, term)
            k, p = term
            assert type(k) is int and type(p) is Poly and p, (name, term)
        ks = [k for k, _ in row]
        assert ks == sorted(set(ks)) and set(ks) <= {0, 1, 2, 3}, name


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(4, 1)
    with pytest.raises(ValueError):
        Partition(2, 3)
    with pytest.raises(ValueError):
        Partition(3, 0)


def test_refines():
    # src refines tgt iff (src, tgt) is one of refinement_pairs(src.rank)
    def refines(src, tgt):
        return (src, tgt) in refinement_pairs(src.rank)

    assert refines(P2_DISTINCT, P2_BOTH_EQUAL)
    assert not refines(P2_BOTH_EQUAL, P2_DISTINCT)
    assert refines(P3_DISTINCT, P3_TWO_EQUAL)
    assert refines(P3_TWO_EQUAL, P3_ALL_EQUAL)
    assert refines(P3_DISTINCT, P3_ALL_EQUAL)
    assert not refines(P3_TWO_EQUAL, P3_DISTINCT)
    for p in (P2_BOTH_EQUAL, P3_DISTINCT):
        assert refines(p, p)
    assert not refines(P2_DISTINCT, P3_DISTINCT)
    # refinement_pairs compares indices; block inclusion is the definition:
    # positions equal under the oracle's src pattern are equal under its tgt
    for rank in (2, 3):
        parts = [Partition(rank, i) for i in range(1, rank + 1)]
        for src in parts:
            for tgt in parts:
                s, t = _PATTERNS[rank, src.index], _PATTERNS[rank, tgt.index]
                inside = all(t[i] == t[j] for i in range(rank) for j in range(rank)
                             if s[i] == s[j])
                assert refines(src, tgt) == inside, (src, tgt)


def test_refinement_pairs():
    assert len(refinement_pairs(2)) == 3
    assert len(refinement_pairs(3)) == 6


def test_plain_values():
    # tgt=None is the whole stratum of pattern src: its row is constant in n
    whole = {P2_BOTH_EQUAL: Poly([2]), P2_DISTINCT: Q - 3, P3_ALL_EQUAL: Poly([3]),
             P3_TWO_EQUAL: Q - 4, P3_DISTINCT: Q ** 2 - 5 * Q + 10}
    for sigma, value in whole.items():
        assert strata.config_rows(None, sigma, None) == (((0, value),),), sigma
        for n in range(1, 13):
            assert config_epoly(sigma, None, n) == value, (sigma, n)


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
    parts = [Partition(r, i) for r in (2, 3) for i in range(1, r + 1)]
    for src in parts:
        for tgt in parts:
            if (src, tgt) not in refinement_pairs(src.rank):
                with pytest.raises(ValueError, match="no plain configuration data"):
                    config_epoly(src, tgt, 2)


def test_plain_rows_with_a_target_are_the_refinement_pairs():
    # config_epoly refuses a pair by its absence from the table, so the plain
    # rows with a target must be exactly the refining pairs of each rank
    for rank in (2, 3):
        plain = [(src, tgt) for group, src, tgt in strata._CONFIG
                 if group is None and tgt is not None and src.rank == rank]
        assert sorted(plain, key=str) == sorted(refinement_pairs(rank), key=str), rank


def test_config_epoly_requires_valid_twists():
    with pytest.raises(ValueError):
        config_epoly(P2_DISTINCT, P2_DISTINCT, 0)


def test_equivariant_s2_values():
    assert config_equivariant_s2(P2_DISTINCT, P2_BOTH_EQUAL, 5) == S2Elem(4, 4)
    assert not config_equivariant_s2(P3_DISTINCT, P3_TWO_EQUAL, 1)
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
    assert not config_equivariant_s3(P3_ALL_EQUAL, 2)
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
        assert config_epoly(P2_DISTINCT, None, n) == (
            config_epoly(P2_DISTINCT, P2_DISTINCT, n)
            + config_epoly(P2_DISTINCT, P2_BOTH_EQUAL, n))
        assert config_epoly(P3_TWO_EQUAL, None, n) == (
            config_epoly(P3_TWO_EQUAL, P3_TWO_EQUAL, n)
            + config_epoly(P3_TWO_EQUAL, P3_ALL_EQUAL, n))
        # the three ways a distinct triple can power into a coincident pair
        # are isomorphic strata, hence the factor 3
        assert config_epoly(P3_DISTINCT, None, n) == (
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
        config_epoly(P2_DISTINCT, None, 3)
    assert config_equivariant_s3(None, 3).dim() == config_epoly(P3_DISTINCT, None, 3)


def _count(src, tgt, n, q):
    # F_q points of the plain stratum (src, tgt), counted from exponents
    return twisted_config_count(src.rank, "1", src.index, tgt.index, n, q)


def test_count_frozen_values():
    assert _count(P2_DISTINCT, P2_BOTH_EQUAL, 2, 5) == 2
    assert _count(P2_DISTINCT, P2_DISTINCT, 2, 5) == 0
    assert _count(P3_DISTINCT, P3_ALL_EQUAL, 1, 7) == 0


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
        assert _count(src, tgt, n, q) == config_epoly(src, tgt, n).evaluate(q), \
            (src, tgt, n, q)


def test_smallest_admissible_prime():
    assert smallest_admissible_prime(2, 1) == 3
    assert smallest_admissible_prime(2, 4) == 17
    assert smallest_admissible_prime(3, 1) == 7
    assert smallest_admissible_prime(3, 2) == 7
    assert smallest_admissible_prime(3, 3) == 19
    for rank in (2, 3):
        for n in range(1, 7):
            assert smallest_admissible_prime(rank, n) <= 97


def test_equivariant_rows_match_twisted_frobenius_counts():
    # the counts twisted by w = 1, (12), (123) give each irreducible
    # component through the inverted character table; a dim() check cannot
    # see mass moved between components.  Every S2/S3 row is checked at
    # n <= 6 and the primes q <= 43 with rank*n | q - 1 for its own rank.
    primes = [q for q in range(3, 44) if all(q % d for d in range(2, q))]
    rows = [key for key in strata._CONFIG if key[0] is not None]
    checked = set()
    for group, src, tgt in rows:
        tgt_index = None if tgt is None else tgt.index
        for n in range(1, 7):
            for q in (q for q in primes if (q - 1) % (src.rank * n) == 0):
                c = {w: twisted_config_count(src.rank, w, src.index, tgt_index, n, q)
                     for w in (("1", "12") if group == "s2" else ("1", "12", "123"))}
                if group == "s2":
                    t, sgn = (x.evaluate(q) for x in config_equivariant_s2(src, tgt, n).coeffs)
                    assert (2 * t, 2 * sgn) == (c["1"] + c["12"], c["1"] - c["12"]), \
                        (src, tgt, n, q)
                else:
                    t, sgn, d = (x.evaluate(q) for x in config_equivariant_s3(tgt, n).coeffs)
                    assert (6 * t, 6 * sgn, 3 * d) == (c["1"] + 3 * c["12"] + 2 * c["123"],
                                                       c["1"] - 3 * c["12"] + 2 * c["123"],
                                                       c["1"] - c["123"]), (tgt, n, q)
                checked.add((group, src, tgt))
    assert len(rows) == 7 and checked == set(rows)
