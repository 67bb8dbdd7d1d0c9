"""Exact E-polynomials of SL2/SL3 representation and character varieties of
twisted Hopf links, computed three independent ways: stratum assembly,
closed formulas, and finite-field point counts."""

from .poly import (
    ONE, Poly, Q, ZERO, general_linear_epoly, special_linear_epoly,
    sym_projective_epoly,
)
from .repring import S2Elem, S3Elem
from .strata import (
    P2_BOTH_EQUAL, P2_DISTINCT, P3_ALL_EQUAL, P3_DISTINCT, P3_TWO_EQUAL,
    Partition, config_epoly, config_equivariant_s2, config_equivariant_s3,
    refinement_pairs,
)
from .geom import (
    J2_BLOCK, J2_DISTINCT, J2_SCALAR, J3_DISTINCT, J3_EQUAL_B21, J3_EQUAL_B3,
    J3_PAIR_B2, J3_PAIR_DIAG, J3_SCALAR, JordanType, Stratum,
    admissible_strata, pgl_mod_stab_epoly,
    rep_variety_epoly_formula, rep_variety_epoly_strata, stabilizer_epoly,
    stratum_epoly,
)
from .charvar import char_piece_epoly, char_variety_epoly_formula
from .ffcount import count_rep_variety_points, is_admissible

__version__ = "0.1.0"
