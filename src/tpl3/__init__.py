"""Exact-arithmetic verification and classification of transposed Poisson
structures on 3-Lie algebras.

Everything computes over exact rationals; every check is an equality, so
there are no tolerances anywhere.
"""

from .linalg import (DimensionMismatch, Infeasible, Matrix, Singular, Vector,
                     determinant, fmt_rat, invert, kernel_basis, mat_mul, mat_vec,
                     parse_rat, rank, rational_root, rref, solve_affine, vec_mat)
from .algebra import (CheckReport, CommProduct, FamilyCoordinates, ShapeMismatch,
                      TriBracket, Violation, a3_bracket, bracket_eval,
                      check_commutative_associative, check_fundamental_identity,
                      check_transposed_leibniz, family_coordinates, product_eval,
                      remark_associativity_residuals)
from .derivations import (DerivationQuery, DerivationSpace, ProductSpace,
                          build_derivation_system, build_product_system,
                          delta_derivations, left_multiplication, tp_product_space)
from .morphisms import (AutoMatrix, NotAutomorphism, a3_automorphism_check,
                        eleven_equation_residuals, is_bracket_automorphism,
                        transport_bracket, transport_product)
from .families import (ALL_CASES, CANONICAL_AUTOMORPHISM, CASE_FAMILY, FAMILY_IDS,
                       FAMILY_PARAMS, CaseId, FamilyInstance, detect_case,
                       instantiate_family)
from .classify import (Certificate, NeedsExtension, NotTransposedPoisson,
                       Unclassified, Unsupported, classify, draw_family_params,
                       fingerprint, normalize, verify_all_cases, verify_paper_case)
from .docio import (AlgebraDocument, DocumentError, matrix_payload, parse_document,
                    parse_matrix, serialize_document)

__version__ = "0.1.0"
