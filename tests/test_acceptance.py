"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is an exact closed form, so all comparisons are exact
(tolerance zero).  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines and timings.
"""

import time

from hopfvar.charvar import char_piece_epoly, char_variety_epoly_formula
from hopfvar.ffcount import count_rep_variety_points
from hopfvar.geom import (
    J3_DISTINCT, _equivariant_pieces, rep_variety_epoly_formula,
    rep_variety_epoly_strata,
)
from hopfvar.poly import Poly, Q, special_linear_epoly, sym_projective_epoly
from hopfvar.repring import S3Elem
from hopfvar.strata import (
    P2_BOTH_EQUAL, P2_DISTINCT, P3_ALL_EQUAL, P3_DISTINCT, P3_TWO_EQUAL,
    config_epoly, config_equivariant_s2, config_equivariant_s3,
    refinement_pairs,
)

from _oracles import (
    conjugacy_class_count_sl2, sl_matrices, smallest_admissible_prime, twisted_config_count,
)


def _report(num: int, name: str, ok: bool, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {verdict} ({elapsed:.3f}s)")


def test_criterion_1_rank2_closed_formula():
    started = time.perf_counter()
    ok = all(rep_variety_epoly_strata(2, n) == rep_variety_epoly_formula(2, n)
             for n in range(1, 201))
    elapsed = time.perf_counter() - started
    _report(1, "rank-2 strata sum equals closed formula, n=1..200", ok, elapsed)
    assert ok
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


def test_criterion_2_rank3_closed_formula():
    started = time.perf_counter()
    ok = all(rep_variety_epoly_strata(3, n) == rep_variety_epoly_formula(3, n)
             for n in range(1, 201))
    elapsed = time.perf_counter() - started
    _report(2, "rank-3 strata sum equals closed formula, n=1..200", ok, elapsed)
    assert ok
    assert elapsed < 5.0, f"runtime {elapsed:.3f}s exceeds 5s"


def test_criterion_3_character_assembly():
    started = time.perf_counter()
    ok = all(char_piece_epoly(rank, "total", n) == char_variety_epoly_formula(rank, n)
             for rank in (2, 3) for n in range(1, 201))
    elapsed = time.perf_counter() - started
    _report(3, "character piece sums equal both closed formulas, n=1..200",
            ok, elapsed)
    assert ok
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


RANK2_ORACLE_POINTS = [(1, 3), (1, 5), (1, 7), (1, 11), (2, 5), (2, 13),
                       (3, 7), (3, 13), (4, 17), (5, 11), (6, 13)]


def test_criterion_4_rank2_finite_field_oracle():
    started = time.perf_counter()
    ok = True
    for n, q in RANK2_ORACLE_POINTS:
        point_started = time.perf_counter()
        count = count_rep_variety_points(2, n, q)
        point_elapsed = time.perf_counter() - point_started
        expected = rep_variety_epoly_formula(2, n).evaluate(q)
        if count != expected:
            ok = False
            print(f"  (n={n}, q={q}): count {count} != {expected}")
        assert point_elapsed < 1.0, f"(n={n}, q={q}) took {point_elapsed:.3f}s"
    elapsed = time.perf_counter() - started
    _report(4, "rank-2 point counts equal formula values at 11 admissible points",
            ok, elapsed)
    assert ok


def test_criterion_5_rank3_finite_field_oracle():
    started = time.perf_counter()
    count = count_rep_variety_points(3, 1, 7)
    elapsed = time.perf_counter() - started
    expected = rep_variety_epoly_formula(3, 1).evaluate(7)
    ok = count == expected
    _report(5, f"rank-3 point count at (n=1, q=7) = {count}", ok, elapsed)
    assert ok, f"count {count} != expected {expected}"
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 minutes"


def test_criterion_6_hopf_class_identity():
    started = time.perf_counter()
    ok = True
    for q in (5, 7, 11):
        classes = conjugacy_class_count_sl2(q)
        count = count_rep_variety_points(2, 1, q)
        group_order = len(sl_matrices(2, q))
        predicted = (Q + 4) * (Q ** 3 - Q)
        if not (count == classes * group_order == predicted.evaluate(q)):
            ok = False
            print(f"  q={q}: count={count}, classes={classes}, |G|={group_order}")
    elapsed = time.perf_counter() - started
    _report(6, "one-twist count equals (class count) x |SL2(F_q)|, q in {5,7,11}",
            ok, elapsed)
    assert ok


def test_criterion_7_equivariant_consistency():
    started = time.perf_counter()
    ok = True
    for n in range(1, 101):
        # dimension map of every group-acted stratum class agrees with the
        # plain stratum E-polynomial
        pairs_s2 = [
            (config_equivariant_s2(P2_DISTINCT, P2_BOTH_EQUAL, n),
             config_epoly(P2_DISTINCT, P2_BOTH_EQUAL, n)),
            (config_equivariant_s2(P2_DISTINCT, P2_DISTINCT, n),
             config_epoly(P2_DISTINCT, P2_DISTINCT, n)),
            (config_equivariant_s2(P2_DISTINCT, None, n),
             config_epoly(P2_DISTINCT, None, n)),
            (config_equivariant_s2(P3_DISTINCT, P3_TWO_EQUAL, n),
             config_epoly(P3_DISTINCT, P3_TWO_EQUAL, n)),
        ]
        pairs_s3 = [
            (config_equivariant_s3(P3_ALL_EQUAL, n),
             config_epoly(P3_DISTINCT, P3_ALL_EQUAL, n)),
            (config_equivariant_s3(P3_DISTINCT, n),
             config_epoly(P3_DISTINCT, P3_DISTINCT, n)),
            (config_equivariant_s3(None, n), config_epoly(P3_DISTINCT, None, n)),
        ]
        ok &= all(elem.dim() == plain for elem, plain in pairs_s2 + pairs_s3)
        # distinct-triple stratum decomposes by power pattern (3 equivalent
        # coincident-pair strata)
        ok &= config_epoly(P3_DISTINCT, None, n) == (
            config_epoly(P3_DISTINCT, P3_DISTINCT, n)
            + 3 * config_epoly(P3_DISTINCT, P3_TWO_EQUAL, n)
            + config_epoly(P3_DISTINCT, P3_ALL_EQUAL, n))
    orbit, stab = _equivariant_pieces(J3_DISTINCT, "s3")
    ok &= (stab * orbit) == S3Elem(special_linear_epoly(3))
    elapsed = time.perf_counter() - started
    _report(7, "equivariant dims, power-pattern decomposition, fibration identity",
            ok, elapsed)
    assert ok
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


def test_criterion_8_configuration_space_oracle():
    started = time.perf_counter()
    ok = True
    for rank in (2, 3):
        for n in range(1, 7):
            q = smallest_admissible_prime(rank, n)
            assert q <= 97
            for src, tgt in refinement_pairs(rank):
                counted = twisted_config_count(rank, "1", src.index, tgt.index, n, q)
                predicted = config_epoly(src, tgt, n).evaluate(q)
                if counted != predicted:
                    ok = False
                    print(f"  rank {rank} {src}->{tgt} n={n} q={q}: "
                          f"{counted} != {predicted}")
    elapsed = time.perf_counter() - started
    _report(8, "configuration-space counts equal formulas, all pairs, n<=6",
            ok, elapsed)
    assert ok
    assert elapsed < 10.0, f"runtime {elapsed:.3f}s exceeds 10s"


def test_criterion_9_symmetric_product_values():
    started = time.perf_counter()
    ok = (sym_projective_epoly(2, 2) == Poly([1, 1, 2, 1, 1])
          and sym_projective_epoly(2, 3) == Poly([1, 1, 2, 2, 2, 1, 1])
          and all(sym_projective_epoly(1, r) == Poly([1] * (r + 1))
                  for r in range(1, 9)))
    elapsed = time.perf_counter() - started
    _report(9, "symmetric-product E-polynomial values", ok, elapsed)
    assert ok
