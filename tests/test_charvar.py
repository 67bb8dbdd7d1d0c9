import ast
from pathlib import Path

import pytest

from hopfvar import charvar
from hopfvar.charvar import PIECES, char_piece_epoly, char_variety_epoly_formula
from hopfvar.poly import ZERO, Q

from _oracles import (
    dense, irreducible_char_points_gl2, irreducible_char_points_gl2_by_classes,
    irreducible_char_points_sl2, reducible_locus_count,
)

HUGE_NS = (10 ** 18, 10 ** 18 + 1)


def test_rank2_pieces():
    assert char_piece_epoly(2, "irr_total", 1) == ZERO
    assert char_piece_epoly(2, "red_total", 5) == Q ** 2 + 1
    assert char_piece_epoly(2, "irr_total", 2) == Q ** 2 - Q + 1
    assert char_piece_epoly(2, "total", 2) == 2 * Q ** 2 - Q + 2


def test_rank3_pieces():
    assert char_piece_epoly(3, "irr_distinct", 2) == ZERO
    assert char_piece_epoly(3, "red_21", 3) == Q ** 4 - 3 * Q ** 3 + 4 * Q ** 2 - 3 * Q + 1
    assert char_piece_epoly(3, "red_111", 9) == Q ** 4 + Q ** 2 + 1
    assert char_piece_epoly(3, "irr_repeated", 2) == \
        3 * (Q ** 4 - Q ** 3 + Q ** 2 - Q + 1)


def test_invalid_pieces():
    with pytest.raises(ValueError):
        char_piece_epoly(2, "red_111", 1)
    with pytest.raises(ValueError):
        char_piece_epoly(3, "nonsense", 1)
    with pytest.raises(ValueError):
        char_piece_epoly(4, "total", 1)
    with pytest.raises(ValueError):
        char_piece_epoly(2, ["total"], 1)
    with pytest.raises(ValueError):
        char_piece_epoly(2, "total", 0)


def test_formula_values():
    assert char_variety_epoly_formula(2, 1) == Q ** 2 + 1
    assert char_variety_epoly_formula(2, 4) == 4 * Q ** 2 - 3 * Q + 4
    assert char_variety_epoly_formula(3, 1) == Q ** 4 + Q ** 2 + 1
    assert char_variety_epoly_formula(3, 2) == \
        5 * Q ** 4 - 6 * Q ** 3 + 7 * Q ** 2 - 4 * Q + 4


@pytest.mark.parametrize("n, q, expected", [(2, 7, 1512), (3, 7, 1548)])
def test_red21_matches_gl2_point_count(n, q, expected):
    # red_21 is the irreducible GL2 locus; q - 1 is a multiple of n, so F_q
    # holds the twist classes and the count is the E-polynomial at q
    assert irreducible_char_points_gl2(q, n) == expected
    assert char_piece_epoly(3, "red_21", n).evaluate(q) == expected


@pytest.mark.parametrize("n, q, expected", [(2, 7, 1512), (3, 7, 1548), (2, 13, 22464),
                                         (3, 13, 22608), (4, 13, 45072)])
def test_red21_matches_gl2_class_sum(n, q, expected):
    # the class sum agrees with the pair sum at q = 7 and reaches q = 13,
    # where n = 4 holds both the paired and the self-inverse twist classes
    assert irreducible_char_points_gl2_by_classes(q, n) == expected
    assert char_piece_epoly(3, "red_21", n).evaluate(q) == expected


@pytest.mark.parametrize("n, q, expected", [(2, 5, 21), (3, 7, 86)])
def test_rank2_irr_total_matches_sl2_point_count(n, q, expected):
    assert irreducible_char_points_sl2(q, n) == expected
    assert char_piece_epoly(2, "irr_total", n).evaluate(q) == expected


@pytest.mark.parametrize("q", (5, 7, 13, 19, 31))
def test_reducible_loci_match_twisted_torus_counts(q):
    # the diagonal pairs up to W are (T x T)/W, counted by twisted tori
    # enumerated point by point, independent of n
    for rank, piece in ((2, "red_total"), (3, "red_111")):
        expected = reducible_locus_count(rank, q)
        for n in (1, 2, 3, 6, 10 ** 18):
            assert char_piece_epoly(rank, piece, n).evaluate(q) == expected, (rank, n)


def test_piece_sums_match_formula():
    for rank in (2, 3):
        for n in range(1, 201):
            total = char_piece_epoly(rank, "total", n)
            assert total == char_variety_epoly_formula(rank, n), (rank, n)
    # rank-3 total decomposes into exactly these four pieces
    for n in (1, 2, 3, 8, 15):
        parts = sum(
            (char_piece_epoly(3, p, n) for p in
             ("red_111", "red_21", "irr_distinct", "irr_repeated")),
            ZERO)
        assert parts == char_variety_epoly_formula(3, n)


def test_rank2_irreducible_structure():
    for n in range(1, 51):
        assert char_piece_epoly(2, "irr_total", n) == (n - 1) * (Q ** 2 - Q + 1)
        if n >= 2:
            assert char_piece_epoly(2, "irr_total", n).degree == 2


def test_one_twist_reduces_to_commuting_values():
    # every irreducible piece and the (2,1) offset vanish at one twist
    assert not char_piece_epoly(2, "irr_total", 1)
    for piece in ("red_21", "irr_distinct", "irr_repeated", "irr_total"):
        assert not char_piece_epoly(3, piece, 1)
    assert char_variety_epoly_formula(2, 1) == Q ** 2 + 1
    assert char_variety_epoly_formula(3, 1) == Q ** 4 + Q ** 2 + 1


def test_leading_coefficients_positive():
    for rank in (2, 3):
        for n in range(1, 201):
            for piece in PIECES[rank]:
                p = char_piece_epoly(rank, piece, n)
                if p:
                    assert p.coeffs[-1] > 0, (rank, piece, n)


def test_char_pieces_in_pieces_order():
    # `char --pieces` prints PIECES in order and checks the last, "total"
    for rank in (2, 3):
        assert PIECES[rank][-1] == "total"
        for n in (1, 2, 3, 8, 15, 200):
            pieces = {piece: char_piece_epoly(rank, piece, n) for piece in PIECES[rank]}
            assert pieces["total"] == pieces["red_total"] + pieces["irr_total"]
    for n in (1, 4, 9):
        pieces = {piece: char_piece_epoly(3, piece, n) for piece in PIECES[3]}
        assert pieces["red_total"] == pieces["red_111"] + pieces["red_21"]
        assert pieces["irr_total"] == pieces["irr_repeated"] + pieces["irr_distinct"]


def test_formula_shares_no_constant_with_pieces():
    # the closed formula checks the piece sums only if it reads none of the
    # module names the pieces are built from: follow every name each side
    # reads through the module-level assignments and functions that define it
    tree = ast.parse(Path(charvar.__file__).read_text(encoding="utf-8"))
    definitions = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            definitions[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        definitions[name.id] = node

    def reads(roots):
        seen, todo = set(), list(roots)
        while todo:
            name = todo.pop()
            if name in definitions and name not in seen:
                seen.add(name)
                todo += [n.id for n in ast.walk(definitions[name]) if isinstance(n, ast.Name)]
        return seen

    formula = reads(["char_variety_epoly_formula"]) - {"char_variety_epoly_formula"}
    pieces = reads(["char_piece_epoly", "PIECES"])
    assert formula and pieces - {"char_piece_epoly", "PIECES"}
    assert not formula & pieces, formula & pieces


def test_one_pass_red21_and_formula_match_their_expansions():
    # red_21 and the rank-3 closed formula are each one combine pass; both
    # must equal the scalar products and sums they replace, red_21 as a sum
    # over the inverse pairs {z, 1/z} and the self-inverse class
    for n in [*range(1, 51), *HUGE_NS]:
        half = (n - 1) // 2
        assert char_piece_epoly(3, "red_21", n) == half * (Q - 1) ** 2 * (Q ** 2 - Q + 1) \
            + (n - 1 - 2 * half) * Q * (Q - 1) ** 3, n
        assert char_variety_epoly_formula(3, n) == (
            charvar._F_Q4_Q2_1
            + ((n - 1) * (n - 2) // 2) * charvar._F_Q6_2Q5
            - ((n - 1) // 2) * charvar._F_QM1_2_Q2_Q_M1
            + (n - 1) * (3 * charvar._F_Q4_Q3 + charvar._F_Q_QM1_3)), n


def expected_pieces(rank, n):
    """Every piece at n from literal polynomials, as products and sums."""
    m = n - 1
    if rank == 2:
        red, irr = Q ** 2 + 1, m * (Q ** 2 - Q + 1)
        return {"red_total": red, "irr_total": irr, "total": red + irr}
    red_111 = Q ** 4 + Q ** 2 + 1
    red_21 = (m // 2) * (Q - 1) ** 2 * (Q ** 2 - Q + 1) + (m % 2) * Q * (Q - 1) ** 3
    irr_repeated = 3 * m * (Q ** 4 - Q ** 3 + Q ** 2 - Q + 1)
    irr_distinct = (m * (m - 1) // 2) * (Q ** 6 - 4 * Q ** 4 + 5 * Q ** 3 - 3 * Q ** 2 + Q
                                         + 2 * (Q ** 5 - 2 * Q ** 3 + 3 * Q ** 2 - 2 * Q + 1))
    red, irr = red_111 + red_21, irr_repeated + irr_distinct
    return {"red_111": red_111, "red_21": red_21, "red_total": red,
            "irr_repeated": irr_repeated, "irr_distinct": irr_distinct,
            "irr_total": irr, "total": red + irr}


@pytest.mark.parametrize("rank", (2, 3))
def test_every_piece_equals_its_closed_expression(rank):
    assert tuple(expected_pieces(rank, 1)) == PIECES[rank]
    for n in [*range(1, 201), *HUGE_NS]:
        for piece, value in expected_pieces(rank, n).items():
            assert char_piece_epoly(rank, piece, n) == value, (piece, n)


def test_pieces_equal_formula_for_all_n():
    """Pieces = formula for every n >= 1, not just for the n sampled above.

    char_piece_epoly(r, "total", n) and the rank-3 char_variety_epoly_formula
    are each a row of fixed polynomials summed against the twist basis
    b(n) = (1, n, C(n, 2), floor(n/2)); the rank-2 formula, Q2_1 + (n - 1)
    Q2_Q_1, is visibly the row below.  So pieces and formula agree for every
    n when the rows agree, and only then, since b is independent on n = 1..4
    (test_strata pins that determinant).  Values at n = 1..4 and further n,
    huge ones included, confirm that each route is its row summed against b.
    """
    formula_rows = {2: ((0, charvar._F_Q2_1 - charvar._F_Q2_Q_1), (1, charvar._F_Q2_Q_1)),
                    3: charvar._FORMULA_R3}
    for rank in (2, 3):
        pieces = dense(charvar._ROWS[rank]["total"])
        assert pieces == dense(formula_rows[rank]), rank
        for n in (1, 2, 3, 4, 5, 8, 11, *HUGE_NS):
            b = (1, n, n * (n - 1) // 2, n // 2)
            value = sum((bk * c for bk, c in zip(b, pieces)), ZERO)
            assert value == char_piece_epoly(rank, "total", n), (rank, n)
            assert value == char_variety_epoly_formula(rank, n), (rank, n)
