"""Toolkit for mutually polar retraction pairs on convex cones in R^m.

Exact cone representations with membership/order/polar operations, three
retraction pair families (lattice, projection, order-unit), brute-force
projection and ray-enumeration oracles, sampled property verification with
witness reports, and the iterative pairwise-supremum construction with its
closed-form lattice oracle.
"""

from .cones import (DEFAULT_TOL, ConeSpec, Lorentz, Orthant, PolyhedralGenerators,
                    PolyhedralHalfspaces, Simplicial, ToleranceConfig, as_vector,
                    cone_from_json, contains, leq, sample_simplicial)
from .oracle import (FaceTable, ProjectionCertificate, brute_force_project,
                     conic_feasibility, double_description,
                     lorentz_reference_project)
from .properties import (CATALOGUE, PropertyReport, catalogue_for,
                         check_idempotence, check_isotone, check_mutual_polarity,
                         check_range_kernel, check_range_negation, check_ranges,
                         check_riesz_identities, check_subadditive,
                         check_subadditivity_defect_sets, run_catalogue, sup_m)
from .retractions import (RetractionPair, lattice_pair, minkowski_pair,
                          moreau_pair, pair_from_json, project_cone)
from .suprema import (SupTrace, closed_form_sup, finite_sigma_continuity_check,
                      iterative_sup, lex_demo, lex_leq, lex_lt)

__version__ = "0.1.0"
